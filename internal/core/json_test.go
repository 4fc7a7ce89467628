package core

import (
	"testing"
)

// TestJSONRoundTrip: a real trace survives encode/decode with identical
// metrics.
func TestJSONRoundTrip(t *testing.T) {
	c, tr, err := collect(8, func(vp *VP[int]) {
		vp.Send(7-vp.ID(), 1)
		vp.Sync(0)
		vp.Send(vp.ID()^1, 2)
		vp.Sync(2)
		vp.Sync(0)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTrace(c.jsonBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.V != tr.V || len(got.Steps) != tr.NumSupersteps() {
		t.Fatalf("round trip mutated shape: %+v vs %+v", got, tr)
	}
	fb, err := got.summary()
	if err != nil {
		t.Fatal(err)
	}
	fa := tr.Summary()
	for p := 2; p <= 8; p *= 2 {
		a, b := fa.F(p), fb.F(p)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("F(%d)[%d] = %d after round trip, want %d", p, i, b[i], a[i])
			}
		}
	}
	sa, sb := fa.S(), fb.S()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("S[%d] mutated: %d vs %d", i, sb[i], sa[i])
		}
	}
}

// TestDecodeJSONRejectsCorruptTraces covers the validation paths.
func TestDecodeJSONRejectsCorruptTraces(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"bad v":           `{"v":3,"log_v":2,"steps":[]}`,
		"bad log_v":       `{"v":4,"log_v":3,"steps":[]}`,
		"bad label":       `{"v":4,"log_v":2,"steps":[{"Label":5,"Degree":[0,0,0],"Messages":0}]}`,
		"bad degree len":  `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0],"Messages":0}]}`,
		"negative degree": `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,-1,0],"Messages":0}]}`,
		"local degree":    `{"v":4,"log_v":2,"steps":[{"Label":1,"Degree":[0,2,0],"Messages":0}]}`,
		"negative msgs":   `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":-1}]}`,
		"fraction":        `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":1.0}]}`,
		"exponent":        `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":1e0}]}`,
		"leading zero":    `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":01}]}`,
		"lone minus":      `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":-}]}`,
		"int32 overflow":  `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,1,1],"Messages":1,"Pairs":[[0,2147483648]]}]}`,
		"int64 overflow":  `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":9223372036854775808}]}`,
		"null label":      `{"v":4,"log_v":2,"steps":[{"Label":null,"Degree":[0,0,0],"Messages":0}]}`,
		"long degree":     `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0,0],"Messages":0}]}`,
		"trailing comma":  `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":0},]}`,
		"missing comma":   `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0] "Messages":0}]}`,
		"extra pairs":     `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,1,1],"Messages":1,"Pairs":[[0,1],[1,0]]}]}`,
		"steps first":     `{"steps":[],"v":4,"log_v":2}`,
		"unknown header":  `{"v":4,"log_v":2,"x":0,"steps":[]}`,
		"truncated":       `{"v":4,"log_v":2,"steps":[{"Label":0,"Degree":[0,0,0],"Messages":0}]`,
		"trailing key":    `{"v":4,"log_v":2,"steps":[],"v":4}`,
	}
	for name, payload := range cases {
		if _, err := decodeTrace([]byte(payload)); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// TestDecodeJSONAcceptsSingleVP: the degenerate machine round-trips.
func TestDecodeJSONAcceptsSingleVP(t *testing.T) {
	c, _, err := collect(1, func(vp *VP[int]) { vp.Sync(0) }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeTrace(c.jsonBytes(t)); err != nil {
		t.Fatal(err)
	}
}
