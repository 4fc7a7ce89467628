// Package tracetest provides test helpers for communication traces:
// comparing them across engines, and bounding decoder allocation in the
// fuzz targets.
package tracetest

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Canonical serializes a trace with per-step Pairs sorted so traces can
// be compared byte for byte across engines.  Only the BlockEngine fixes
// pair order (the GoroutineEngine appends them in cluster-completion
// order, which is scheduling dependent), so they are compared as
// multisets.
func Canonical(t testing.TB, tr *core.Trace) []byte {
	t.Helper()
	c := &core.Trace{V: tr.V, LogV: tr.LogV, Steps: make([]core.StepRec, len(tr.Steps))}
	copy(c.Steps, tr.Steps)
	for i := range c.Steps {
		if c.Steps[i].Pairs.Len() == 0 {
			c.Steps[i].Pairs = nil
			continue
		}
		p := c.Steps[i].Pairs.Pairs()
		sort.Slice(p, func(a, b int) bool {
			if p[a][0] != p[b][0] {
				return p[a][0] < p[b][0]
			}
			return p[a][1] < p[b][1]
		})
		c.Steps[i].Pairs = core.PairListOf(p)
	}
	var buf bytes.Buffer
	if err := c.EncodeJSON(&buf); err != nil {
		t.Fatalf("tracetest: encoding trace: %v", err)
	}
	return buf.Bytes()
}

// EngineEquivalence runs a registry algorithm on both execution engines
// at every given size and asserts byte-identical traces — the check the
// repository applies to its built-in algorithms and, because it takes any
// descriptor, to user-registered ones too.  The BlockEngine leg runs
// through a streaming sink (an accumulating Trace behind Options.Sink),
// so every size also asserts the streamed superstep emission equals the
// reference GoroutineEngine's in-memory trace.  It returns the number of
// sizes successfully compared.
func EngineEquivalence(t testing.TB, a alg.Algorithm, sizes []int) int {
	t.Helper()
	compared := 0
	for _, n := range sizes {
		ref, refErr := a.Run(context.Background(), alg.Spec{Engine: core.GoroutineEngine{}}, n)
		var streamed core.Trace
		_, gotErr := a.Run(context.Background(), alg.Spec{Engine: core.BlockEngine{}, Sink: &streamed}, n)
		if (refErr != nil) != (gotErr != nil) {
			t.Errorf("%s n=%d: engines disagree on validity: goroutine=%v block=%v", a.Name, n, refErr, gotErr)
			continue
		}
		if refErr != nil {
			continue // size invalid for this algorithm on every engine
		}
		if !bytes.Equal(Canonical(t, ref.Trace), Canonical(t, &streamed)) {
			t.Errorf("%s n=%d: BlockEngine (streaming sink) trace differs from GoroutineEngine trace", a.Name, n)
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
