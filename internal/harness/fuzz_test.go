package harness

import (
	"bytes"
	"testing"
)

// FuzzDecodeDocument drives the results-document decoder with arbitrary
// bytes.  Decoding must never panic.  An accepted document must
// re-encode, and that encoding must decode back to a document that
// encodes to the same bytes.  (Bytes, not values, are compared: encoding
// omits an empty notes, checks or results list that the input spelled
// out as [].)
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
		doc, err := DecodeDocument(bytes.NewReader(data))
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
