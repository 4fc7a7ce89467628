package core

import (
	"encoding/json"
	"strings"
	"testing"

	"netoblivious/internal/obs"
)

// probeTestProg is a small static program: logV supersteps of ascending
// labels with a butterfly exchange each.
func probeTestProg(vp *VP[int]) {
	logV := vp.LogV()
	if logV == 0 {
		vp.Sync(0)
		return
	}
	for s := 0; s < logV; s++ {
		vp.Send(vp.ID()^(1<<uint(logV-1-s)), vp.ID())
		vp.Sync(s)
	}
}

// decodeProbe parses a probe's Chrome trace JSON into events.
func decodeProbe(t *testing.T, p *obs.Probe) []struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TID  int            `json:"tid"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
} {
	t.Helper()
	var b strings.Builder
	if err := p.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("probe emitted invalid chrome trace JSON: %v", err)
	}
	return doc.TraceEvents
}

// countEngineSpans returns the number of ph=X engine-category spans and
// checks each carries label and messages args.
func countEngineSpans(t *testing.T, p *obs.Probe) int {
	t.Helper()
	n := 0
	for _, e := range decodeProbe(t, p) {
		if e.Ph != "X" || e.Cat != "engine" {
			continue
		}
		n++
		if _, ok := e.Args["label"]; !ok {
			t.Fatalf("engine span %q missing label arg: %v", e.Name, e.Args)
		}
		if _, ok := e.Args["messages"]; !ok {
			t.Fatalf("engine span %q missing messages arg: %v", e.Name, e.Args)
		}
	}
	return n
}

// TestProbeSpansPerSuperstep is the probe contract test: every engine
// emits exactly one engine-category span per executed superstep.
func TestProbeSpansPerSuperstep(t *testing.T) {
	const v = 32
	for _, eng := range []Engine{BlockEngine{}, GoroutineEngine{}} {
		t.Run(eng.Name(), func(t *testing.T) {
			probe := obs.NewProbe()
			tr, err := RunOpt(v, probeTestProg, Options{Engine: eng, Probe: probe})
			if err != nil {
				t.Fatal(err)
			}
			want := tr.NumSupersteps()
			if got := countEngineSpans(t, probe); got != want {
				t.Fatalf("%s: %d engine spans for %d supersteps", eng.Name(), got, want)
			}
		})
	}
}

// TestProbeBlockBarrierWait: the BlockEngine emits a barrier_wait_ns
// counter sample per superstep with one series per worker.
func TestProbeBlockBarrierWait(t *testing.T) {
	probe := obs.NewProbe()
	tr, err := RunOpt(64, probeTestProg, Options{Engine: BlockEngine{Workers: 4}, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, e := range decodeProbe(t, probe) {
		if e.Ph == "C" && e.Name == "barrier_wait_ns" {
			samples++
			if len(e.Args) != 4 {
				t.Fatalf("barrier_wait_ns sample has %d worker series, want 4: %v", len(e.Args), e.Args)
			}
		}
	}
	if samples != tr.NumSupersteps() {
		t.Fatalf("%d barrier_wait_ns samples for %d supersteps", samples, tr.NumSupersteps())
	}
}

// TestProbeStreamingSink: probe spans are also emitted in streaming
// (sink) mode, where completed steps leave the pending window.
func TestProbeStreamingSink(t *testing.T) {
	probe := obs.NewProbe()
	sink := &countingSink{}
	tr, err := RunOpt(32, probeTestProg, Options{Engine: GoroutineEngine{}, Probe: probe, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if got := countEngineSpans(t, probe); got != tr.NumSupersteps() {
		t.Fatalf("streaming: %d engine spans for %d supersteps", got, tr.NumSupersteps())
	}
}

// countingSink is a minimal TraceSink for the streaming probe test.
type countingSink struct{ steps int }

func (s *countingSink) BeginTrace(v, logV int) error { return nil }
func (s *countingSink) WriteStep(rec StepRec) error  { s.steps++; return nil }
func (s *countingSink) EndTrace(runErr error) error  { return nil }

// TestNilProbeAllocParity documents the nil-probe guarantee: a run with
// an explicitly nil probe allocates exactly as much as a run with no
// probe field at all — there is no instrumented path left when the
// probe is nil.
func TestNilProbeAllocParity(t *testing.T) {
	run := func(opts Options) func() {
		return func() {
			if _, err := RunOpt(64, probeTestProg, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(5, run(Options{Engine: BlockEngine{Workers: 2}}))
	nilProbe := testing.AllocsPerRun(5, run(Options{Engine: BlockEngine{Workers: 2}, Probe: nil}))
	if base != nilProbe {
		t.Fatalf("nil-probe run allocates differently: baseline %v vs nil-probe %v allocs", base, nilProbe)
	}
}
