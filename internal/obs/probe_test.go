package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilProbeSafe drives every method through a nil probe: the whole
// point of the API is that instrumented code needs no guards.
func TestNilProbeSafe(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	start := p.Now()
	if !start.IsZero() {
		t.Fatal("nil probe Now() is not the zero time")
	}
	p.Span("cat", "name", 0, start, nil)
	p.SpanBetween("cat", "name", 0, start, start, nil)
	p.Instant("cat", "name", 0, nil)
	p.Counter("cat", "name", 0, map[string]any{"v": 1})
	p.NameThread(0, "x")
	p.Reset()
	if p.Len() != 0 || p.Dropped() != 0 {
		t.Fatal("nil probe has state")
	}
	var b strings.Builder
	if err := p.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("nil probe trace is not valid JSON: %v", err)
	}
}

func TestProbeChromeTraceShape(t *testing.T) {
	p := NewProbe()
	p.NameThread(3, "worker 3")
	start := p.Now()
	time.Sleep(time.Millisecond)
	p.Span("engine", "superstep 0", 3, start, map[string]any{"messages": 128})
	p.Instant("job", "enqueued", 0, nil)
	p.Counter("engine", "barrier_wait_ns", 0, map[string]any{"w0": 10, "w1": 20})

	var b strings.Builder
	if err := p.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var sawSpan, sawMeta, sawCounter, sawInstant bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			sawSpan = true
			if e.Name != "superstep 0" || e.Cat != "engine" || e.TID != 3 {
				t.Fatalf("bad span event: %+v", e)
			}
			if e.Dur < 900 { // slept 1ms; dur is in microseconds
				t.Fatalf("span dur = %v us, expected >= ~1000", e.Dur)
			}
			if e.Args["messages"].(float64) != 128 {
				t.Fatalf("span args = %v", e.Args)
			}
		case "M":
			if e.Name == "thread_name" && e.TID == 3 {
				sawMeta = true
			}
		case "C":
			sawCounter = true
		case "i":
			sawInstant = true
		}
	}
	if !sawSpan || !sawMeta || !sawCounter || !sawInstant {
		t.Fatalf("missing event kinds: span=%v meta=%v counter=%v instant=%v",
			sawSpan, sawMeta, sawCounter, sawInstant)
	}
}

func TestProbeBounded(t *testing.T) {
	p := NewBoundedProbe(3)
	for i := 0; i < 10; i++ {
		p.Instant("t", "e", 0, nil)
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d, want 3", p.Len())
	}
	if p.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", p.Dropped())
	}
	var b strings.Builder
	if err := p.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dropped_events") {
		t.Fatal("trace does not report dropped events")
	}
	p.Reset()
	if p.Len() != 0 || p.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestProbeRingKeepsNewest: a full probe overwrites its oldest events,
// so an always-on probe exports the most recent window, oldest first,
// and counts what it overwrote.
func TestProbeRingKeepsNewest(t *testing.T) {
	p := NewBoundedProbe(4)
	for i := 0; i < 6; i++ {
		p.Instant("t", fmt.Sprintf("e%d", i), 0, nil)
	}
	if p.Len() != 4 || p.Dropped() != 2 {
		t.Fatalf("len = %d, dropped = %d; want 4 and 2", p.Len(), p.Dropped())
	}
	var b strings.Builder
	if err := p.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			got = append(got, e.Name)
		}
	}
	if want := []string{"e2", "e3", "e4", "e5"}; !slices.Equal(got, want) {
		t.Fatalf("exported events %v, want %v", got, want)
	}
}

func TestProbeConcurrent(t *testing.T) {
	p := NewProbe()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Span("t", "s", g, p.Now(), nil)
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 8*200 {
		t.Fatalf("len = %d, want %d", p.Len(), 8*200)
	}
}

func TestNewLoggerFlags(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown", "k", "v")
	if strings.Contains(b.String(), "hidden") || !strings.Contains(b.String(), `"k":"v"`) {
		t.Fatalf("json logger output wrong: %s", b.String())
	}
	if _, err := NewLogger(&b, "verbose", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&b, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("request IDs look wrong: %q %q", a, b)
	}
}
