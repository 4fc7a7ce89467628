package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Format names an output encoding of the experiment pipeline.
type Format string

const (
	// FormatText renders aligned plain-text tables (the default).
	FormatText Format = "text"
	// FormatMarkdown renders GitHub-flavored markdown tables.
	FormatMarkdown Format = "md"
	// FormatJSON renders the schema-tagged Document, which decodes
	// back through encoding/json and Document.Validate.
	FormatJSON Format = "json"
	// FormatCSV renders one CSV section per result (data rows only).
	FormatCSV Format = "csv"
)

// Formats lists the selectable output formats.
func Formats() []Format { return []Format{FormatText, FormatMarkdown, FormatJSON, FormatCSV} }

// ParseFormat resolves a user-facing format name.
func ParseFormat(name string) (Format, error) {
	for _, f := range Formats() {
		if string(f) == name {
			return f, nil
		}
	}
	if name == "markdown" {
		return FormatMarkdown, nil
	}
	return "", fmt.Errorf("harness: unknown format %q (have text|md|json|csv)", name)
}

// Ext returns the file extension used when writing per-experiment files.
func (f Format) Ext() string {
	switch f {
	case FormatMarkdown:
		return ".md"
	case FormatJSON:
		return ".json"
	case FormatCSV:
		return ".csv"
	default:
		return ".txt"
	}
}

// valueDTO is the explicit JSON encoding of a typed cell: exactly one of
// the fields is present, so a decode reconstructs the Value kind-exactly
// (a bare JSON number could not distinguish Int from Float).
type valueDTO struct {
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
}

// MarshalJSON implements json.Marshaler.  Numbers are appended in
// encoding/json's own format, without a reflective Marshal per cell;
// strings, and the floats JSON cannot represent (whose error Marshal
// reports), go through json.Marshal.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.Kind {
	case KindString:
		return json.Marshal(valueDTO{S: &v.Str})
	case KindInt:
		return append(strconv.AppendInt([]byte(`{"i":`), v.Int, 10), '}'), nil
	default:
		f := v.Float
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return json.Marshal(valueDTO{F: &v.Float})
		}
		// encoding/json's float64 format: shortest repr, exponent form
		// outside [1e-6, 1e21), and a two-digit negative exponent
		// trimmed to one ("1e-07" -> "1e-7").
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b := strconv.AppendFloat([]byte(`{"f":`), f, format, -1, 64)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return append(b, '}'), nil
	}
}

// UnmarshalJSON implements json.Unmarshaler, rejecting cells that do not
// carry exactly one kind.
func (v *Value) UnmarshalJSON(data []byte) error {
	if cell, ok := decodeCell(data); ok {
		*v = cell
		return nil
	}
	var dto valueDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	set := 0
	if dto.S != nil {
		*v = String(*dto.S)
		set++
	}
	if dto.I != nil {
		*v = Int(*dto.I)
		set++
	}
	if dto.F != nil {
		*v = Float(*dto.F)
		set++
	}
	if set != 1 {
		return fmt.Errorf("harness: cell must carry exactly one of s/i/f, got %d", set)
	}
	return nil
}

// decodeCell parses the cells MarshalJSON writes, {"i":N}, {"f":X} and
// {"s":"text"} with no escape in the text, indented or not, without a
// reflective Unmarshal per cell.  ok is false for every other input,
// which then takes the reflective path.  encoding/json hands an
// Unmarshaler one valid JSON value, so what follows the colon is JSON
// too, and strconv accepts a number there exactly when the reflective
// path would.
func decodeCell(data []byte) (Value, bool) {
	b := bytes.TrimSpace(data)
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return Value{}, false
	}
	b = bytes.TrimSpace(b[1 : len(b)-1])
	if len(b) < 4 || b[0] != '"' || b[2] != '"' {
		return Value{}, false
	}
	kind := b[1]
	b = bytes.TrimSpace(b[3:])
	if len(b) < 2 || b[0] != ':' {
		return Value{}, false
	}
	val := bytes.TrimSpace(b[1:])
	switch kind {
	case 'i':
		if i, err := strconv.ParseInt(string(val), 10, 64); err == nil {
			return Int(i), true
		}
	case 'f':
		if f, err := strconv.ParseFloat(string(val), 64); err == nil {
			return Float(f), true
		}
	case 's':
		// Without an escape, the text is the bytes between the quotes;
		// invalid UTF-8 is left for the reflective path to replace.
		if len(val) < 2 || val[0] != '"' {
			break
		}
		if text := val[1 : len(val)-1]; !bytes.ContainsAny(text, `"\`) && utf8.Valid(text) {
			return String(string(text)), true
		}
	}
	return Value{}, false
}

// Text renders the result as an aligned plain-text table with notes and
// check outcomes.
func (r *Result) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s  [%s]\n", r.ID, r.Title, r.PaperRef)
	rows := r.FormattedRows()
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(&sb, "check: %-4s %s — %s\n", checkWord(c.Pass), c.Name, c.Detail)
	}
	return sb.String()
}

// Markdown renders the result as GitHub-flavored markdown.
func (r *Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n*Reproduces: %s*\n\n", r.ID, r.Title, r.PaperRef)
	sb.WriteString("| " + strings.Join(r.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(r.Columns)) + "\n")
	for _, row := range r.FormattedRows() {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	sb.WriteByte('\n')
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "> %s\n", n)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(&sb, "- **%s** %s — %s\n", checkWord(c.Pass), c.Name, c.Detail)
	}
	return sb.String()
}

func checkWord(pass bool) string {
	if pass {
		return "ok"
	}
	return "FAIL"
}

// EncodeCSV writes the result's grid as CSV: a header row of column
// names followed by the formatted data rows.  Notes and checks are
// presentation/metadata and stay out of the data stream.
func (r *Result) EncodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := writeCSVRecord(w, cw, r.Columns); err != nil {
		return err
	}
	for _, row := range r.FormattedRows() {
		if err := writeCSVRecord(w, cw, row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSVRecord writes one record through cw so that encoding/csv's
// reader, with '#' as its comment character, reads it back unchanged.
// encoding/csv alone does not guarantee that: its reader turns "\r\n"
// inside a quoted field into "\n", reads a line starting with '#' as a
// comment and skips a blank line, while its writer quotes neither a
// leading '#' nor a lone empty field.
func writeCSVRecord(w io.Writer, cw *csv.Writer, rec []string) error {
	if slices.ContainsFunc(rec, func(f string) bool { return strings.Contains(f, "\r\n") }) {
		rec = slices.Clone(rec)
		for i, f := range rec {
			rec[i] = strings.ReplaceAll(f, "\r\n", "\r\r\n") // read back as "\r\n"
		}
	}
	if len(rec) == 0 || !strings.HasPrefix(rec[0], "#") && (len(rec) > 1 || rec[0] != "") {
		return cw.Write(rec)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	first := `"` + strings.ReplaceAll(rec[0], `"`, `""`) + `"`
	if len(rec) == 1 {
		_, err := io.WriteString(w, first+"\n")
		return err
	}
	if _, err := io.WriteString(w, first+","); err != nil {
		return err
	}
	return cw.Write(rec[1:])
}

// DocumentSchema tags the JSON document format; bump on breaking changes.
const DocumentSchema = "nobl/results/v1"

// Document is the JSON sink's payload: the full structured outcome of a
// suite run.  It deliberately excludes wall-clock timings so that
// parallel and sequential runs encode byte-identically; timings come
// from the benchmark under bench/.
type Document struct {
	// Schema is always DocumentSchema.
	Schema string `json:"schema"`
	// Quick records whether reduced problem sizes were used.
	Quick bool `json:"quick"`
	// Engine is the execution engine name the suite ran on: "block"
	// from every binary and the service.
	Engine string `json:"engine"`
	// Records holds one entry per experiment, in registry order.
	Records []Record `json:"experiments"`
}

// EncodeDocument writes the document as indented JSON.
func EncodeDocument(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Validate checks the structural invariants a decoded document must
// hold before anything renders it: the schema tag, per-experiment
// identifiers, no null result, and row/column consistency of every
// result grid.  Every decoder of documents from outside the process
// applies it.
func (doc *Document) Validate() error {
	if doc.Schema != DocumentSchema {
		return fmt.Errorf("harness: document schema %q, want %q", doc.Schema, DocumentSchema)
	}
	for _, rec := range doc.Records {
		if rec.ID == "" {
			return fmt.Errorf("harness: document record without experiment id")
		}
		for _, res := range rec.Results {
			if res == nil {
				return fmt.Errorf("harness: %s: null result", rec.ID)
			}
			if len(res.Columns) == 0 {
				return fmt.Errorf("harness: %s: result %q has no columns", rec.ID, res.Title)
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Columns) {
					return fmt.Errorf("harness: %s: row %d has %d cells, want %d", rec.ID, i, len(row), len(res.Columns))
				}
			}
		}
	}
	return nil
}

// Sink consumes suite records in registry order and renders them to a
// stream.  Write is called once per experiment; Close flushes formats
// that buffer (JSON emits its document on Close).
type Sink interface {
	Write(rec Record) error
	Close() error
}

// NewSink builds a sink for the format writing to w.  The JSON sink
// stamps the document header from cfg.
func NewSink(f Format, w io.Writer, cfg Config) (Sink, error) {
	switch f {
	case FormatText:
		return &streamSink{w: w, render: func(r *Result) string { return r.Text() }}, nil
	case FormatMarkdown:
		return &streamSink{w: w, render: func(r *Result) string { return r.Markdown() }}, nil
	case FormatCSV:
		return &csvSink{w: w}, nil
	case FormatJSON:
		return &jsonSink{w: w, doc: Document{
			Schema: DocumentSchema,
			Quick:  cfg.Quick,
			Engine: cfg.engine().Name(),
		}}, nil
	default:
		return nil, fmt.Errorf("harness: unknown format %q", f)
	}
}

// streamSink renders each result eagerly with a blank line between them;
// shared by the text and markdown formats.
type streamSink struct {
	w      io.Writer
	render func(*Result) string
}

func (s *streamSink) Write(rec Record) error {
	if rec.Err != "" {
		_, err := fmt.Fprintf(s.w, "%s — ERROR: %s\n\n", rec.ID, rec.Err)
		return err
	}
	for _, res := range rec.Results {
		if _, err := io.WriteString(s.w, s.render(res)); err != nil {
			return err
		}
		if _, err := io.WriteString(s.w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

func (s *streamSink) Close() error { return nil }

// csvSink writes one commented CSV section per result; the comment line
// carries the experiment identity so a concatenated stream stays
// self-describing.  A CSV reader with '#' as its comment character skips
// the comment lines; split a multi-section stream on blank lines first.
type csvSink struct {
	w     io.Writer
	wrote bool
}

func (s *csvSink) Write(rec Record) error {
	if rec.Err != "" {
		return nil // errors are not data; they surface via Record/exit code
	}
	for _, res := range rec.Results {
		if s.wrote {
			if _, err := io.WriteString(s.w, "\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(s.w, "# %s — %s [%s]\n", res.ID, res.Title, res.PaperRef); err != nil {
			return err
		}
		if err := res.EncodeCSV(s.w); err != nil {
			return err
		}
		s.wrote = true
	}
	return nil
}

func (s *csvSink) Close() error { return nil }

// jsonSink buffers records and emits the full Document on Close.
type jsonSink struct {
	w   io.Writer
	doc Document
}

func (s *jsonSink) Write(rec Record) error {
	s.doc.Records = append(s.doc.Records, rec)
	return nil
}

func (s *jsonSink) Close() error { return EncodeDocument(s.w, s.doc) }
