package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	"netoblivious/internal/tracetest"
)

// decodeDocument reads a document as a client of the service does:
// encoding/json, then Document.Validate.
func decodeDocument(r io.Reader) (Document, error) {
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Document{}, fmt.Errorf("harness: decoding document: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// decodeCSV reads a CSV stream written by EncodeCSV (or one section of
// the csv sink's output, whose leading "# ..." identity line is skipped
// as a comment) back into columns and formatted rows, for round-trip
// verification.
func decodeCSV(rd io.Reader) (columns []string, rows [][]string, err error) {
	cr := csv.NewReader(rd)
	cr.Comment = '#'
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: decoding csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("harness: csv stream has no header")
	}
	return recs[0], recs[1:], nil
}

// FuzzDecodeDocument drives the results-document decoder, encoding/json
// followed by Document.Validate, with arbitrary bytes.  Decoding must never panic and must allocate within
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
		tracetest.CheckAlloc(t, len(data), func() { doc, err = decodeDocument(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		enc := encodeDocument(t, doc)
		got, err := decodeDocument(bytes.NewReader(enc))
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

// FuzzDecodeCSV drives the CSV decoder with arbitrary bytes: the writer's
// round trip through encoding/csv.  Decoding
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
		tracetest.CheckAlloc(t, len(data), func() { cols, rows, err = decodeCSV(bytes.NewReader(data)) })
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
		cols2, rows2, err := decodeCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(cols2, cols) || !reflect.DeepEqual(rows2, rows) {
			t.Fatalf("round trip changed the grid:\ncolumns %q -> %q\nrows %q -> %q", cols, cols2, rows, rows2)
		}
	})
}
