package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// TestRegistryStreamedJSONByteIdentical: for every registry algorithm at
// its smallest default size, a recorded run streamed through the JSON
// writer produces exactly the bytes EncodeJSON produces for the
// accumulated trace of an identical run.  Pair order inside a step
// carries no cross-engine guarantee, so both runs use the BlockEngine at
// a fixed worker count, whose shard merge order is reproducible.
func TestRegistryStreamedJSONByteIdentical(t *testing.T) {
	ctx := context.Background()
	eng := core.BlockEngine{Workers: 2}
	for _, a := range alg.All() {
		sizes := a.DefaultSizes()
		if len(sizes) == 0 {
			t.Errorf("%s: no default sizes", a.Name)
			continue
		}
		n := sizes[0]
		for _, s := range sizes {
			if s < n {
				n = s
			}
		}
		ref, err := a.Run(ctx, alg.Spec{Engine: eng, Record: true}, n)
		if err != nil {
			t.Errorf("%s n=%d: %v", a.Name, n, err)
			continue
		}
		var want bytes.Buffer
		if err := ref.Trace.EncodeJSON(&want); err != nil {
			t.Fatalf("%s n=%d: %v", a.Name, n, err)
		}
		var got bytes.Buffer
		jw := core.NewTraceJSONWriter(&got)
		jw.ReleasePairs = true
		if _, err := a.Run(ctx, alg.Spec{Engine: eng, Record: true, Sink: jw}, n); err != nil {
			t.Errorf("%s n=%d (streamed): %v", a.Name, n, err)
			continue
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s n=%d: streamed JSON differs from in-memory EncodeJSON (%d vs %d bytes)",
				a.Name, n, got.Len(), want.Len())
		}
	}
}

// TestArchivedTraceFormat pins the JSON trace format across versions:
// testdata/archive holds traces written by an earlier release with
// `nobl trace ALG -n 64 -record -o FILE`.  Re-recording each must give
// the same bytes, and decoding each must give the fold summary of a
// live run.  Regenerate the files only for a deliberate format change.
func TestArchivedTraceFormat(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"fft", "sort"} {
		const n = 64
		path := filepath.Join("testdata", "archive", fmt.Sprintf("%s-n%d-record.json", name, n))
		archived, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := alg.ByName(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}

		// Record exactly as `nobl trace -record -o -` does.
		var got bytes.Buffer
		jw := core.NewTraceJSONWriter(&got)
		jw.ReleasePairs = true
		if _, err := a.Run(ctx, alg.Spec{Record: true, Sink: jw}, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), archived) {
			t.Errorf("%s: re-recorded trace (%d bytes) differs from %s (%d bytes)", name, got.Len(), path, len(archived))
		}

		src, err := core.NewTraceSource(bytes.NewReader(archived))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := core.Summarize(src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		live, err := a.Run(ctx, alg.Spec{Record: true}, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := live.Trace.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if !sameFoldSummary(decoded, want) {
			t.Errorf("%s: archived fold summary differs from a live run's", name)
		}
	}
}

// sameFoldSummary compares two summaries on every count they hold.
func sameFoldSummary(a, b *core.FoldSummary) bool {
	if a.V() != b.V() || a.NumSupersteps() != b.NumSupersteps() ||
		a.TotalMessages() != b.TotalMessages() || !slices.Equal(a.S(), b.S()) {
		return false
	}
	for p := 2; p <= a.V(); p *= 2 {
		if !slices.Equal(a.F(p), b.F(p)) {
			return false
		}
	}
	return true
}
