package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Allocation budget of one decode in FuzzNewTraceSource: a fixed
// allowance for reader state and the first column chunk, plus a constant
// multiple of the input length.  A decoder whose allocation follows a
// declared count instead of the bytes present exceeds it on a short
// hostile input.  The other fuzz targets use tracetest.CheckAlloc with
// the same budget; core's tests cannot import tracetest, which imports
// core.
const (
	fuzzAllocBase    = 1 << 20
	fuzzAllocPerByte = 64
)

// FuzzNewTraceSource drives the format-sniffing trace decoder with
// arbitrary bytes.  Decoding must never panic and must allocate within
// the budget above.  An input that decodes is re-encoded in both
// formats: each encoding must decode back to the same steps, and
// re-encoding that decode must reproduce the encoding byte for byte.
// Two differential properties hold the JSON codec to encoding/json (see
// jsonref_test.go): a JSON input the reader accepts, encoding/json
// accepts with the same steps, and the writer's bytes for any decoded
// trace equal encoding/json's.
//
// Run it with: go test -run '^$' -fuzz FuzzNewTraceSource -fuzztime 30s ./internal/core
func FuzzNewTraceSource(f *testing.F) {
	for _, tr := range fuzzSeedTraces(f) {
		f.Add(encodeTrace(f, tr, jsonCodec))
		f.Add(encodeTrace(f, tr, binaryCodec))
	}
	f.Add(hostileStep(1<<40, 1<<40))
	f.Add(hostileStep(-1, 1<<40))
	f.Add([]byte(`{"v":1,"log_v":0,"steps":null}`))
	for _, tc := range outOfRangePairCases() {
		f.Add(encodeTrace(f, tc.tr, jsonCodec))
		f.Add(encodeTrace(f, tc.tr, binaryCodec))
	}
	// Many one-pair steps: the pair storage must follow the pairs present,
	// not a chunk per step.
	many := []byte(`{"v":2,"log_v":1,"steps":[`)
	for i := 0; i < 256; i++ {
		if i > 0 {
			many = append(many, ',')
		}
		many = append(many, `{"label":0,"degree":[0,1],"messages":1,"pairs":[[0,1]]}`...)
	}
	f.Add(append(many, "]}"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := decodeTrace(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > fuzzAllocBase+fuzzAllocPerByte*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), d)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(traceBinaryMagic)) {
			rt, err := refDecodeJSON(data)
			if err != nil {
				t.Fatalf("the JSON reader accepts an input encoding/json rejects: %v", err)
			}
			if !sameAsRef(tr, rt) {
				t.Fatalf("the JSON reader and encoding/json decode different steps")
			}
		}
		if enc, ref := encodeTrace(t, tr, jsonCodec), refEncodeJSON(t, tr); !bytes.Equal(enc, ref) {
			t.Fatalf("the JSON writer's bytes differ from encoding/json's:\n%s\n%s", enc, ref)
		}
		for _, format := range []traceCodec{jsonCodec, binaryCodec} {
			enc := encodeTrace(t, tr, format)
			got, err := decodeTrace(enc)
			if err != nil {
				t.Fatalf("format %d: a decoded trace does not decode after re-encoding: %v", format, err)
			}
			if !sameSteps(tr, got) {
				t.Fatalf("format %d: re-encoded trace decodes to different steps", format)
			}
			if again := encodeTrace(t, got, format); !bytes.Equal(again, enc) {
				t.Fatalf("format %d: encode(decode(encode(t))) differs from encode(t)", format)
			}
		}
	})
}

// fuzzSeedTraces builds the seed corpus: the probe tests' butterfly
// program with and without message pairs, and a single-VP trace.
func fuzzSeedTraces(tb testing.TB) []*collector {
	tb.Helper()
	var out []*collector
	for _, o := range []struct {
		v      int
		record bool
	}{{8, true}, {8, false}, {1, false}} {
		c, _, err := collect(o.v, probeTestProg, Options{RecordMessages: o.record})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// decodeTrace decodes a whole trace through NewTraceSource.
func decodeTrace(data []byte) (*collector, error) {
	src, err := NewTraceSource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return readAll(src)
}

// traceCodec selects the codec writer encodeTrace uses.
type traceCodec int

const (
	jsonCodec traceCodec = iota
	binaryCodec
)

// encodeTrace encodes tr through the streaming codec writer of format.
func encodeTrace(tb testing.TB, tr *collector, format traceCodec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	var sink TraceSink = NewTraceJSONWriter(&buf)
	if format == binaryCodec {
		sink = NewTraceBinaryWriter(&buf)
	}
	if err := tr.replay(sink); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameSteps compares two traces field by field, pairs in order.
func sameSteps(a, b *collector) bool {
	if a.V != b.V || a.LogV != b.LogV || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		x, y := &a.Steps[i], &b.Steps[i]
		if x.Label != y.Label || x.Messages != y.Messages || !slices.Equal(x.Degree, y.Degree) ||
			!slices.Equal(x.Pairs.Pairs(), y.Pairs.Pairs()) {
			return false
		}
	}
	return true
}

// outOfRangePairCases are v=4 traces whose only defect is one pair
// endpoint outside [0, v), in the step named by step.
func outOfRangePairCases() []struct {
	name string
	step int
	tr   *collector
} {
	good := StepRec{Degree: []int64{0, 1, 1}, Messages: 1, Pairs: PairListOf([][2]int32{{0, 2}})}
	bad := func(src, dst int32, before int) *collector {
		tr := &collector{V: 4, LogV: 2}
		for i := 0; i < before; i++ {
			tr.Steps = append(tr.Steps, good)
		}
		step := good
		step.Pairs = PairListOf([][2]int32{{1, 3}, {src, dst}})
		step.Messages = 2
		tr.Steps = append(tr.Steps, step)
		return tr
	}
	return []struct {
		name string
		step int
		tr   *collector
	}{
		{"src >= v", 0, bad(9, 2, 0)},
		{"src == v", 1, bad(4, 0, 1)},
		{"src < 0", 0, bad(-1, 0, 0)},
		{"dst < 0", 0, bad(0, -7, 0)},
		{"dst >= v", 2, bad(3, 1<<31-1, 2)},
	}
}

// TestDecodersRejectOutOfRangePairs: a pair endpoint that is not a VP of
// the machine is a decode error naming the step, in both formats.
func TestDecodersRejectOutOfRangePairs(t *testing.T) {
	for _, tc := range outOfRangePairCases() {
		for _, format := range []traceCodec{jsonCodec, binaryCodec} {
			_, err := decodeTrace(encodeTrace(t, tc.tr, format))
			want := fmt.Sprintf("decoding trace step %d: ", tc.step)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "outside [0, 4)") {
				t.Errorf("%s, format %d: err = %v, want one containing %q and the range", tc.name, format, err, want)
			}
		}
	}
}
