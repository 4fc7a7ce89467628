package harness

import (
	"bytes"
	"testing"
)

// renderSuite runs the full quick suite at the given parallelism and
// renders it through every sink, returning the concatenated bytes per
// format.
func renderSuite(t *testing.T, parallel int) map[Format][]byte {
	t.Helper()
	cfg := Config{Quick: true, Parallel: parallel, Store: NewTraceStore()}
	recs, err := RunSuite(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[Format][]byte{}
	for _, f := range Formats() {
		var buf bytes.Buffer
		s, err := NewSink(f, &buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := s.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		out[f] = buf.Bytes()
	}
	return out
}

// TestGoldenParallelDeterminism is the pipeline's determinism guarantee:
// a sequential run and a maximally parallel run of the full quick suite
// must render byte-identically in every format.  Experiments draw inputs
// from private fixed-seed RNGs and share traces through the single-flight
// store, so any divergence is a scheduling leak — a real bug.
func TestGoldenParallelDeterminism(t *testing.T) {
	seq := renderSuite(t, 1)
	par := renderSuite(t, 8)
	for _, f := range Formats() {
		if !bytes.Equal(seq[f], par[f]) {
			t.Errorf("%s output differs between sequential and parallel runs", f)
		}
	}
	// The text golden must carry real content: all 17 experiments.
	for _, id := range []string{"E1", "E16", "F1"} {
		if !bytes.Contains(seq[FormatText], []byte(id+" — ")) {
			t.Errorf("text output missing experiment %s", id)
		}
	}
	// And the JSON document must survive the schema-checked decode.
	if _, err := decodeDocument(bytes.NewReader(seq[FormatJSON])); err != nil {
		t.Errorf("suite JSON document undecodable: %v", err)
	}
}
