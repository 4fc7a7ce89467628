package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refTrace and refStep are the encoding/json form of a trace: the
// schema the hand-written codec in json.go reads and writes, kept here
// as its differential oracle.  Pairs decodes as encoding/json decoded
// the former PairList.UnmarshalJSON target, a flat [][2]int32, with null
// and [] kept apart.
type refTrace struct {
	V     int       `json:"v"`
	LogV  int       `json:"log_v"`
	Steps []refStep `json:"steps"`
}

type refStep struct {
	Label    int
	Degree   []int64
	Messages int64
	Pairs    [][2]int32
}

// refDecodeJSON is the encoding/json trace decoder that TraceJSONReader
// replaced: one Decode of the whole document, then the same validation.
func refDecodeJSON(data []byte) (*refTrace, error) {
	var rt refTrace
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&rt); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if rt.V < 1 || rt.V&(rt.V-1) != 0 {
		return nil, fmt.Errorf("core: trace has invalid v=%d", rt.V)
	}
	if rt.LogV != Log2(rt.V) {
		return nil, fmt.Errorf("core: trace log_v=%d inconsistent with v=%d", rt.LogV, rt.V)
	}
	labelBound := max(rt.LogV, 1)
	for i, s := range rt.Steps {
		rec := StepRec{Label: s.Label, Degree: s.Degree, Messages: s.Messages}
		if s.Pairs != nil {
			rec.Pairs = PairListOf(s.Pairs)
		}
		if err := validateStep(&rec, i, rt.LogV, labelBound); err != nil {
			return nil, err
		}
	}
	return &rt, nil
}

// refTraceOf converts a trace to its encoding/json form.
func refTraceOf(tr *collector) *refTrace {
	rt := &refTrace{V: tr.V, LogV: tr.LogV}
	for _, rec := range tr.Steps {
		s := refStep{Label: rec.Label, Degree: rec.Degree, Messages: rec.Messages}
		if rec.Pairs != nil {
			s.Pairs = append([][2]int32{}, rec.Pairs.Pairs()...)
		}
		rt.Steps = append(rt.Steps, s)
	}
	return rt
}

// refEncodeJSON is what json.NewEncoder(w).Encode writes for the trace:
// the bytes TraceJSONWriter must reproduce.
func refEncodeJSON(tb testing.TB, tr *collector) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(refTraceOf(tr)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsRef reports whether a decoded trace and the oracle's decode of
// the same bytes hold the same steps: label, degree, messages, and
// pairs in order, with a null Pairs decoding to nil in both.
func sameAsRef(tr *collector, rt *refTrace) bool {
	if tr.V != rt.V || tr.LogV != rt.LogV || len(tr.Steps) != len(rt.Steps) {
		return false
	}
	for i, rec := range tr.Steps {
		s := rt.Steps[i]
		if rec.Label != s.Label || rec.Messages != s.Messages || !slices.Equal(rec.Degree, s.Degree) ||
			(rec.Pairs == nil) != (s.Pairs == nil) || !slices.Equal(rec.Pairs.Pairs(), s.Pairs) {
			return false
		}
	}
	return true
}

// deliberateRejections are inputs the encoding/json decoder accepted and
// TraceJSONReader rejects on purpose.  Each is also a committed seed of
// FuzzNewTraceSource (testdata/fuzz/FuzzNewTraceSource/reject-*).
var deliberateRejections = map[string]string{
	"pair arity 1":     `{"v":2,"log_v":1,"steps":[{"Label":0,"Degree":[0,1],"Messages":1,"Pairs":[[0]]}]}`,
	"pair arity 3":     `{"v":2,"log_v":1,"steps":[{"Label":0,"Degree":[0,1],"Messages":1,"Pairs":[[0,1,1]]}]}`,
	"unknown step key": `{"v":2,"log_v":1,"steps":[{"Label":0,"Degree":[0,1],"Messages":1,"Extra":1}]}`,
	"escaped key":      `{"v":2,"log_v":1,"steps":[{"Label":0,"Degree":[0,1],"\u004dessages":1}]}`,
	"1 KiB key":        `{"v":2,"log_v":1,"steps":[{"Label":0,"Degree":[0,1],"Messages":1,"` + strings.Repeat("k", 1024) + `":0}]}`,
}

// TestTraceJSONReaderDeliberateRejections: each deliberate rejection
// fails with an error naming the step, where the encoding/json decoder
// accepted it.
func TestTraceJSONReaderDeliberateRejections(t *testing.T) {
	for name, in := range deliberateRejections {
		if _, err := refDecodeJSON([]byte(in)); err != nil {
			t.Errorf("%s: the encoding/json decoder rejects it too: %v", name, err)
		}
		_, err := decodeTrace([]byte(in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "trace step 0") {
			t.Errorf("%s: error does not name the step: %v", name, err)
		}
	}
}

// TestTraceJSONReaderAcceptsSchemaVariants: whitespace, key order and
// case, and missing keys decode as encoding/json decoded them.
func TestTraceJSONReaderAcceptsSchemaVariants(t *testing.T) {
	cases := map[string]string{
		"whitespace": " {\n\t\"v\" : 2 ,\r\n \"log_v\":1, \"steps\" : [ { \"Label\" : 0 , \"Degree\" : [ 0 , 1 ] , " +
			"\"Messages\" : 2 , \"Pairs\" : [ [ 0 , 1 ] , [ -0 , 0 ] ] } ] } trailing bytes are not read",
		"key order":    `{"log_v":1,"v":2,"steps":[{"Pairs":[[1,0]],"Messages":1,"Degree":[0,1],"Label":0}]}`,
		"key case":     `{"v":2,"log_v":1,"steps":[{"label":0,"DEGREE":[0,1],"mEsSaGeS":1,"pairs":[]}]}`,
		"missing keys": `{"v":2,"log_v":1,"steps":[{"Degree":[0,0]}]}`,
		"repeated key": `{"v":2,"log_v":1,"steps":[{"Degree":[0,7],"Degree":[0,1],"Messages":1,"Pairs":[[0,1]],"Pairs":null}]}`,
		"null steps":   `{"v":1,"log_v":0,"steps":null}`,
		"empty steps":  `{"v":1,"log_v":0,"steps":[]}`,
	}
	for name, in := range cases {
		tr, err := decodeTrace([]byte(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		rt, err := refDecodeJSON([]byte(in))
		if err != nil {
			t.Fatalf("%s: the encoding/json decoder rejects it: %v", name, err)
		}
		if !sameAsRef(tr, rt) {
			t.Errorf("%s: decodes to %+v, encoding/json to %+v", name, tr.Steps, rt.Steps)
		}
	}
}
