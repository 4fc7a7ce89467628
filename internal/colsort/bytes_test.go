package colsort

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// TestRecordedTraceHashes pins the recorded JSON trace of every registry
// size of sort and bitonic (registry input, wiseness dummies, message
// pairs, BlockEngine at its default worker count) to a SHA-256.  The
// bytes are the whole observable behaviour of a static algorithm — every
// label, degree and (src, dst) pair in send order — so any rewrite of
// how the VPs execute must leave them unchanged.
func TestRecordedTraceHashes(t *testing.T) {
	cases := []struct {
		alg  string
		n    int
		want string
	}{
		{"sort", 2, "a9ca6291ae65ba4c351f4e801e3d3c968fd45fa49931275bc63604216f181989"},
		{"sort", 8, "f24c455eb608a5025f1c95d60b60098312866635a6079606f33eab8d49b10892"},
		{"sort", 64, "8772903d58aaa3a70823609454fec12d0a169e8b226ee33149648a7f689ff4a8"},
		{"sort", 1024, "7dab234e555474c5fd53938eacc8d8c721ddab6a4634d2c5d71d65f04f61a820"},
		{"bitonic", 2, "a9ca6291ae65ba4c351f4e801e3d3c968fd45fa49931275bc63604216f181989"},
		{"bitonic", 8, "152ddd26bac2d80adf73ba5cb8fa11c6950d507e28074ec115c2a21a4faf664e"},
		{"bitonic", 64, "06553022a600b4f74e96aef3f0f04c59a64a65ce3ba6f5cea32a5489faad6236"},
		{"bitonic", 1024, "f81f38a86b2464502e29db6b6eddbd46fc600a8c2cc8363c759b429727f574be"},
	}
	for _, c := range cases {
		a, ok := alg.ByName(c.alg)
		if !ok {
			t.Fatalf("%s not registered", c.alg)
		}
		var buf bytes.Buffer
		spec := alg.Spec{Record: true, Engine: core.BlockEngine{}, Sink: core.NewTraceJSONWriter(&buf)}
		if _, err := a.Run(context.Background(), spec, c.n); err != nil {
			t.Fatalf("%s n=%d: %v", c.alg, c.n, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s n=%d: recorded trace SHA-256 %s, want %s (%d bytes)", c.alg, c.n, got, c.want, buf.Len())
		}
	}
}
