package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFormatFloatBoundaries pins the formatter's precision bands at their
// exact boundaries (1, 100, 1e6) and just below them.
func TestFormatFloatBoundaries(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.9999, "0.9999"},
		{1, "1.00"},
		{3.14159, "3.14"},
		{99.99, "99.99"},
		{100, "100"},
		{101.4, "101"},
		{999999, "999999"},
		{1000000, "1e+06"},
		{1234567, "1.23e+06"},
		{-3.14159, "-3.14"},
		{-100, "-100"},
		{-1234567, "-1.23e+06"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// sampleRecord builds a record exercising every cell kind, notes and both
// check outcomes.
func sampleRecord() Record {
	res := &Result{
		ID: "EX", Title: "sample", PaperRef: "Theorem 0",
		Columns: []string{"name", "n", "H"},
		Notes:   []string{"a note"},
	}
	res.AddRow("matmul", 1024, 42.5)
	res.AddRow("fft", 256, 0.125)
	res.AddCheck("bounded", true, "max = %.2f", 42.5)
	return Record{ID: "EX", Title: "sample", PaperRef: "Theorem 0", Results: []*Result{res}}
}

// TestJSONDocumentRoundTrip encodes a document and decodes it back
// through the schema-checked decoder: the structured results must
// survive exactly, kinds included.
func TestJSONDocumentRoundTrip(t *testing.T) {
	doc := Document{Schema: DocumentSchema, Quick: true, Engine: "block", Records: []Record{sampleRecord()}}
	var buf bytes.Buffer
	if err := EncodeDocument(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDocument(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", doc, got)
	}

	// The decoder must reject wrong schemas and ragged rows.
	if _, err := DecodeDocument(strings.NewReader(`{"schema":"bogus"}`)); err == nil {
		t.Error("decoder accepted a wrong schema tag")
	}
	bad := doc
	bad.Records = []Record{sampleRecord()}
	bad.Records[0].Results[0].Rows[0] = bad.Records[0].Results[0].Rows[0][:1]
	buf.Reset()
	if err := EncodeDocument(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDocument(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("decoder accepted a ragged row")
	}
}

// TestValueJSONKinds checks that the typed-cell encoding distinguishes
// Int from Float across a round trip and rejects malformed cells.
func TestValueJSONKinds(t *testing.T) {
	for _, v := range []Value{String("x"), Int(7), Float(7)} {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Value
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("round trip %+v -> %s -> %+v", v, data, got)
		}
	}
	var v Value
	if err := v.UnmarshalJSON([]byte(`{}`)); err == nil {
		t.Error("empty cell accepted")
	}
	if err := v.UnmarshalJSON([]byte(`{"i":1,"f":2}`)); err == nil {
		t.Error("double-kind cell accepted")
	}
}

// TestValueJSONMatchesReflective holds the direct cell codec to the
// reflective one: every cell encodes to the bytes json.Marshal of its
// valueDTO gives, and every input, including the indented cells a
// served document carries, decodes through json.Unmarshal to the value
// (or the failure) json.Unmarshal into a valueDTO gives.
func TestValueJSONMatchesReflective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []Value{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64), String(""), String("<a&b>"),
		String("é\u2028\"q\""), Float(0), Float(math.Copysign(0, -1)), Float(1e-6), Float(9.99e-7), Float(1e21),
		Float(9.99e20), Float(-1e-7), Float(1e-100), Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Float(math.NaN()), Float(math.Inf(1))}
	for i := 0; i < 2000; i++ {
		vals = append(vals, Int(rng.Int63()-rng.Int63()), Float(math.Float64frombits(rng.Uint64())),
			Float(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30))))
	}
	for _, v := range vals {
		var ref []byte
		var refErr error
		switch v.Kind {
		case KindString:
			ref, refErr = json.Marshal(valueDTO{S: &v.Str})
		case KindInt:
			ref, refErr = json.Marshal(valueDTO{I: &v.Int})
		default:
			ref, refErr = json.Marshal(valueDTO{F: &v.Float})
		}
		got, err := v.MarshalJSON()
		if (err != nil) != (refErr != nil) || !bytes.Equal(got, ref) {
			t.Fatalf("%+v: MarshalJSON = %s, %v; json.Marshal = %s, %v", v, got, err, ref, refErr)
		}
	}
	inputs := []string{`{"i":0}`, `{"i":-0}`, `{"i":01}`, `{"i":1.0}`, `{"i":1e2}`, `{"i":99999999999999999999}`,
		`{"i":-}`, `{"i":+1}`, `{"f":.5}`, `{"f":1.}`, `{"f":1e}`, `{"f":1e+}`, `{"f":-1.5E-3}`, `{"f":1e400}`,
		`{"f":0.000001}`, `{"s":""}`, `{"s":"a\"b"}`, `{"s":"a\\b"}`, `{"s":"\u00e9"}`, "{\"s\":\"\xff\"}",
		"{\"s\":\"a\tb\"}", `{"s":1}`, `{"i":"1"}`, `{"I":3}`, `{"x":3}`, `{"s":"a","s":"b"}`, `{ "i":1}`,
		"{\n  \"f\": 2.5\n}", "\t{\"s\" :\r\"x\" } ", `{"s":"a" "b"}`, `{"i":1 2}`, `{"i"::1}`, `{"f":}`, `{"s":"}`,
		`{"f":"1"}`, `{"f":null}`, `{"i":true}`, `{"f":{"f":1}}`, `{"i":1,"i":2}`, `{"s":"a","i":1}`, `{"s":"a\u0000"}`,
		"{\"i\":\v1}", `{"s":"`, `{"s"}`, `{"s":}`, `{"s":""`, `null`, `[]`, `{}`}
	for _, v := range vals {
		data, _ := v.MarshalJSON()
		var indented bytes.Buffer
		if json.Indent(&indented, data, "    ", "  ") == nil {
			inputs = append(inputs, string(data), indented.String())
		}
	}
	for _, in := range inputs {
		var got Value
		err := json.Unmarshal([]byte(in), &got)
		var dto valueDTO
		refErr := json.Unmarshal([]byte(in), &dto)
		var want Value
		set := 0
		if dto.S != nil {
			want, set = String(*dto.S), set+1
		}
		if dto.I != nil {
			want, set = Int(*dto.I), set+1
		}
		if dto.F != nil {
			want, set = Float(*dto.F), set+1
		}
		if refErr != nil || set != 1 {
			if err == nil {
				t.Errorf("%s: decoded %+v, reflective decoder refuses it", in, got)
			}
			continue
		}
		if err != nil || got.Kind != want.Kind || got.Str != want.Str || got.Int != want.Int ||
			math.Float64bits(got.Float) != math.Float64bits(want.Float) {
			t.Errorf("%s: decoded %+v, %v; want %+v", in, got, err, want)
		}
	}
}

// TestCSVRoundTrip writes a result grid as CSV and reads it back: header
// and formatted rows must survive, including cells containing commas.
func TestCSVRoundTrip(t *testing.T) {
	res := &Result{
		ID: "EX", Title: "csv", PaperRef: "x",
		Columns: []string{"name", "v"},
	}
	res.AddRow("a,b", 1.5)
	res.AddRow("plain", 2)
	var buf bytes.Buffer
	if err := res.EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := DecodeCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, res.Columns) {
		t.Errorf("columns: got %v want %v", cols, res.Columns)
	}
	if !reflect.DeepEqual(rows, res.FormattedRows()) {
		t.Errorf("rows: got %v want %v", rows, res.FormattedRows())
	}

	// The csv sink's actual file output (with its leading "# ..."
	// identity comment) must decode too.
	buf.Reset()
	sink, err := NewSink(FormatCSV, &buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "EX", Results: []*Result{res}}
	if err := sink.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	cols2, rows2, err := DecodeCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sink output undecodable: %v", err)
	}
	if !reflect.DeepEqual(cols2, res.Columns) || !reflect.DeepEqual(rows2, res.FormattedRows()) {
		t.Errorf("sink-file round trip mismatch: %v %v", cols2, rows2)
	}
}

// TestSinkRendering smoke-checks every sink over a sample record: check
// lines must surface in text and markdown, and the JSON sink must emit a
// decodable document.
func TestSinkRendering(t *testing.T) {
	rec := sampleRecord()
	for _, f := range Formats() {
		var buf bytes.Buffer
		s, err := NewSink(f, &buf, Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		switch f {
		case FormatText:
			if !strings.Contains(out, "check: ok") || !strings.Contains(out, "note: a note") {
				t.Errorf("text sink missing checks/notes:\n%s", out)
			}
		case FormatMarkdown:
			if !strings.Contains(out, "**ok** bounded") {
				t.Errorf("markdown sink missing check line:\n%s", out)
			}
		case FormatCSV:
			if !strings.Contains(out, "# EX — sample") || !strings.Contains(out, "matmul,1024,42.50") {
				t.Errorf("csv sink malformed:\n%s", out)
			}
		case FormatJSON:
			if _, err := DecodeDocument(strings.NewReader(out)); err != nil {
				t.Errorf("json sink emitted an undecodable document: %v", err)
			}
		}
	}
}

// TestParseFormat covers the name resolution and the unknown-name error.
func TestParseFormat(t *testing.T) {
	for _, name := range []string{"text", "md", "markdown", "json", "csv"} {
		if _, err := ParseFormat(name); err != nil {
			t.Errorf("ParseFormat(%q): %v", name, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
}
