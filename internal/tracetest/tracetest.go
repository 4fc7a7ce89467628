// Package tracetest provides test helpers for communication traces:
// collecting a run's supersteps in memory, comparing them across
// engines, and bounding decoder allocation in the fuzz targets.
//
//nob:testhook test support shared by the tests of core, harness, service, dbsp and the examples
package tracetest

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Collector is a TraceSink that keeps a copy of every superstep record
// it is given, pairs included: the in-memory trace tests read, since a
// run keeps only its fold summary and lends each record to its sink.
// Set it as a run's Options.Sink (or alg.Spec.Sink), then read Steps.
type Collector struct {
	V, LogV int
	Steps   []core.StepRec
}

// BeginTrace implements core.TraceSink.
func (c *Collector) BeginTrace(v, logV int) error {
	if lv, err := core.TryLog2(v); err != nil || lv != logV {
		return fmt.Errorf("tracetest: log_v=%d inconsistent with v=%d", logV, v)
	}
	c.V, c.LogV, c.Steps = v, logV, c.Steps[:0]
	return nil
}

// WriteStep implements core.TraceSink by keeping a copy of the lent
// record.
func (c *Collector) WriteStep(rec core.StepRec) error {
	c.Steps = append(c.Steps, copyStep(&rec))
	return nil
}

// copyStep copies a lent record, Degree and Pairs included; a nil list
// stays nil.
func copyStep(rec *core.StepRec) core.StepRec {
	cp := *rec
	cp.Degree = slices.Clone(rec.Degree)
	if rec.Pairs != nil {
		cp.Pairs = core.PairListOf(rec.Pairs.Pairs())
	}
	return cp
}

// EndTrace implements core.TraceSink.
func (c *Collector) EndTrace(runErr error) error { return nil }

// ReadAll drains a TraceSource into a Collector, copying each record
// (a source lends it only until the next Next).  It does not Close the
// source.
func ReadAll(src core.TraceSource) (*Collector, error) {
	c := &Collector{}
	if err := c.BeginTrace(src.V(), src.LogV()); err != nil {
		return nil, err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		c.Steps = append(c.Steps, copyStep(rec))
	}
}

// Replay writes the collected steps into sink, lending each record as a
// run would.
func (c *Collector) Replay(sink core.TraceSink) error {
	if err := sink.BeginTrace(c.V, c.LogV); err != nil {
		return err
	}
	for _, rec := range c.Steps {
		if err := sink.WriteStep(rec); err != nil {
			return err
		}
	}
	return sink.EndTrace(nil)
}

// JSON encodes the collected steps through core.TraceJSONWriter: the
// bytes a run streamed into that writer produces.
func (c *Collector) JSON(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Replay(core.NewTraceJSONWriter(&buf)); err != nil {
		t.Fatalf("tracetest: encoding trace: %v", err)
	}
	return buf.Bytes()
}

// Canonical serializes collected steps with per-step Pairs sorted so
// traces can be compared byte for byte across engines.  Only the
// BlockEngine fixes pair order (the GoroutineEngine appends them in
// cluster-completion order, which is scheduling dependent), so they are
// compared as multisets.
func Canonical(t testing.TB, c *Collector) []byte {
	t.Helper()
	sorted := &Collector{V: c.V, LogV: c.LogV, Steps: slices.Clone(c.Steps)}
	for i := range sorted.Steps {
		if sorted.Steps[i].Pairs.Len() == 0 {
			sorted.Steps[i].Pairs = nil
			continue
		}
		p := sorted.Steps[i].Pairs.Pairs()
		slices.SortFunc(p, func(a, b [2]int32) int {
			if a[0] != b[0] {
				return cmp.Compare(a[0], b[0])
			}
			return cmp.Compare(a[1], b[1])
		})
		sorted.Steps[i].Pairs = core.PairListOf(p)
	}
	return sorted.JSON(t)
}

// EngineEquivalence runs a registry algorithm on both execution engines
// at every given size, each into a Collector, and asserts byte-identical
// canonical traces — the check the repository applies to its built-in
// algorithms and, because it takes any descriptor, to user-registered
// ones too.  It returns the number of sizes successfully compared.
func EngineEquivalence(t testing.TB, a alg.Algorithm, sizes []int) int {
	t.Helper()
	compared := 0
	for _, n := range sizes {
		var ref, got Collector
		_, refErr := a.Run(context.Background(), alg.Spec{Engine: core.GoroutineEngine{}, Sink: &ref}, n)
		_, gotErr := a.Run(context.Background(), alg.Spec{Engine: core.BlockEngine{}, Sink: &got}, n)
		if (refErr != nil) != (gotErr != nil) {
			t.Errorf("%s n=%d: engines disagree on validity: goroutine=%v block=%v", a.Name, n, refErr, gotErr)
			continue
		}
		if refErr != nil {
			continue // size invalid for this algorithm on every engine
		}
		if !bytes.Equal(Canonical(t, &ref), Canonical(t, &got)) {
			t.Errorf("%s n=%d: BlockEngine trace differs from GoroutineEngine trace", a.Name, n)
			continue
		}
		compared++
	}
	return compared
}

// Allocation budget of one decode in the fuzz targets: a fixed allowance
// for reader state and the first chunk, plus a constant multiple of the
// input length.  A decoder whose allocation follows a declared count
// instead of the bytes present exceeds it on a short hostile input.
const (
	AllocBase    = 1 << 20
	AllocPerByte = 64
)

// CheckAlloc runs f and fails tb when it allocated more than the budget
// for n input bytes.
func CheckAlloc(tb testing.TB, n int, f func()) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > AllocBase+AllocPerByte*uint64(n) {
		tb.Fatalf("%d input bytes allocated %d bytes, over the budget of %d", n, d, AllocBase+AllocPerByte*uint64(n))
	}
}
