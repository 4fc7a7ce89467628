package harness

import (
	"bytes"
	"context"
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
