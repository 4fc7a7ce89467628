package harness

import (
	"bytes"
	"reflect"
	"testing"

	"netoblivious/internal/tracetest"
)

// FuzzDecodeDocument drives the results-document decoder with arbitrary
// bytes.  Decoding must never panic and must allocate within
// tracetest.CheckAlloc's budget.  An accepted document must re-encode,
// and that encoding must decode back to a document that encodes to the
// same bytes.  (Bytes, not values, are compared: encoding omits an
// empty notes, checks or results list that the input spelled out as
// [].)
//
// Run it with: go test -run '^$' -fuzz FuzzDecodeDocument -fuzztime 15s ./internal/harness
func FuzzDecodeDocument(f *testing.F) {
	doc := Document{Schema: DocumentSchema, Quick: true, Engine: "block", Records: []Record{sampleRecord()}}
	f.Add(encodeDocument(f, doc))
	ragged := Document{Schema: DocumentSchema, Engine: "block", Records: []Record{sampleRecord()}}
	ragged.Records[0].Results[0].Rows[0] = ragged.Records[0].Results[0].Rows[0][:1]
	f.Add(encodeDocument(f, ragged))
	failed := Document{Schema: DocumentSchema, Engine: "block", Records: []Record{{ID: "E1", Err: "boom"}}}
	f.Add(encodeDocument(f, failed))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Add([]byte(`{"schema":"nobl/results/v1","experiments":[{"id":"E1","results":[{"columns":["a"],"rows":[[{}]]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc Document
		var err error
		tracetest.CheckAlloc(t, len(data), func() { doc, err = DecodeDocument(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		enc := encodeDocument(t, doc)
		got, err := DecodeDocument(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("an accepted document does not decode after re-encoding: %v", err)
		}
		if again := encodeDocument(t, got); !bytes.Equal(again, enc) {
			t.Fatalf("encode(decode(encode(d))) differs from encode(d):\n%s\n%s", enc, again)
		}
	})
}

// encodeDocument is EncodeDocument into a fresh buffer; a decoded
// document must always encode.
func encodeDocument(tb testing.TB, doc Document) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeDocument(&buf, doc); err != nil {
		tb.Fatalf("encoding a document: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeCSV drives the CSV decoder with arbitrary bytes.  Decoding
// must never panic and must allocate within tracetest.CheckAlloc's
// budget, and an accepted stream must survive a round trip: its columns
// and rows, written back through EncodeCSV, decode to the same columns
// and rows.
//
// Run it with: go test -run '^$' -fuzz FuzzDecodeCSV -fuzztime 15s ./internal/harness
func FuzzDecodeCSV(f *testing.F) {
	commas := &Result{ID: "EX", Title: "csv", PaperRef: "x", Columns: []string{"name", "v"}}
	commas.AddRow("a,b", 1.5)
	commas.AddRow("plain", 2)
	for _, rec := range []Record{sampleRecord(), {ID: "EX", Results: []*Result{commas}}} {
		var buf bytes.Buffer
		if err := rec.Results[0].EncodeCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		buf.Reset()
		sink, err := NewSink(FormatCSV, &buf, Config{})
		if err != nil {
			f.Fatal(err)
		}
		if err := sink.Write(rec); err != nil {
			f.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A lone empty field and a leading '#' once re-encoded as a blank
	// line and a comment.
	f.Add([]byte("a\n\"\"\n"))
	f.Add([]byte("\"#a\",b\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cols []string
		var rows [][]string
		var err error
		tracetest.CheckAlloc(t, len(data), func() { cols, rows, err = DecodeCSV(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		res := &Result{Columns: cols}
		for _, row := range rows {
			cells := make([]any, len(row))
			for i, c := range row {
				cells[i] = c
			}
			res.AddRow(cells...)
		}
		var buf bytes.Buffer
		if err := res.EncodeCSV(&buf); err != nil {
			t.Fatalf("an accepted stream does not re-encode: %v", err)
		}
		cols2, rows2, err := DecodeCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(cols2, cols) || !reflect.DeepEqual(rows2, rows) {
			t.Fatalf("round trip changed the grid:\ncolumns %q -> %q\nrows %q -> %q", cols, cols2, rows, rows2)
		}
	})
}
