package core

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// TraceJSONWriter is a TraceSink that encodes supersteps to the wire
// format incrementally, one record at a time, so serializing a trace
// never materializes more than a single superstep.  The bytes produced
// are identical to encoding a whole in-memory Trace at once — a
// streamed file and EncodeJSON agree byte for byte.  The format is the
// compact JSON encoding/json gives the document
//
//	{"v":V,"log_v":L,"steps":[STEP,...]|null}
//
// with each STEP written as
//
//	{"Label":N,"Degree":[N,...]|null,"Messages":N,"Pairs":[[S,D],...]|[]|null}
//
// where a nil Pairs list is null and an empty one [].
//
// A writer serializes one trace: a second BeginTrace is an error.  The
// caller owns the underlying io.Writer; EndTrace flushes but does not
// close it.
type TraceJSONWriter struct {
	// ReleasePairs returns each record's pooled pair chunks to the
	// chunk pool after encoding.  Enable it only when the writer owns
	// its records exclusively — a run's Options.Sink does, a retained
	// in-memory trace being archived does not.
	ReleasePairs bool

	bw        *bufio.Writer
	buf       []byte // encoding scratch, reused across steps
	started   bool
	ended     bool
	wroteStep bool
	steps     int
}

// jsonFlushLen is the scratch length at which WriteStep hands encoded
// pairs to the buffered writer, so a message-heavy step never holds more
// than this much of its encoding at once.
const jsonFlushLen = 32 << 10

// NewTraceJSONWriter returns a writer encoding to w.
func NewTraceJSONWriter(w io.Writer) *TraceJSONWriter {
	return &TraceJSONWriter{bw: bufio.NewWriter(w)}
}

// BeginTrace implements TraceSink: it emits the trace header.
func (jw *TraceJSONWriter) BeginTrace(v, logV int) error {
	if jw.started {
		return fmt.Errorf("core: trace writer: BeginTrace called twice; a codec writer serializes exactly one trace (one machine per run)")
	}
	jw.started = true
	var hdr []byte
	hdr = append(hdr, `{"v":`...)
	hdr = strconv.AppendInt(hdr, int64(v), 10)
	hdr = append(hdr, `,"log_v":`...)
	hdr = strconv.AppendInt(hdr, int64(logV), 10)
	hdr = append(hdr, `,"steps":`...)
	_, err := jw.bw.Write(hdr)
	return err
}

// WriteStep implements TraceSink: it appends one superstep record.
// Its output is part of the archived-trace format and must be
// byte-identical across runs of the same trace.
//
//nob:deterministic
func (jw *TraceJSONWriter) WriteStep(rec StepRec) error {
	if !jw.started || jw.ended {
		return fmt.Errorf("core: trace writer: WriteStep outside BeginTrace/EndTrace")
	}
	b := jw.buf[:0]
	if jw.wroteStep {
		b = append(b, ',')
	} else {
		b = append(b, '[')
		jw.wroteStep = true
	}
	b = append(b, `{"Label":`...)
	b = strconv.AppendInt(b, int64(rec.Label), 10)
	b = append(b, `,"Degree":`...)
	if rec.Degree == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for j, d := range rec.Degree {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, d, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Messages":`...)
	b = strconv.AppendInt(b, rec.Messages, 10)
	b = append(b, `,"Pairs":`...)
	if rec.Pairs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		sep := false
		for _, c := range rec.Pairs.chunks {
			for i := range c.src {
				if sep {
					b = append(b, ',')
				}
				sep = true
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(c.src[i]), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(c.dst[i]), 10)
				b = append(b, ']')
				if len(b) >= jsonFlushLen {
					if _, err := jw.bw.Write(b); err != nil {
						return err
					}
					b = b[:0]
				}
			}
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	jw.buf = b
	if _, err := jw.bw.Write(b); err != nil {
		return err
	}
	jw.steps++
	if jw.ReleasePairs {
		rec.Pairs.Release()
	}
	return nil
}

// EndTrace implements TraceSink.  On a successful run it emits the
// footer and flushes; on a failed run it leaves the output mid-stream —
// unterminated on purpose, so a truncated trace can never decode as a
// complete one — and the file sink wrapping it removes the partial file.
func (jw *TraceJSONWriter) EndTrace(runErr error) error {
	if jw.ended {
		return nil
	}
	jw.ended = true
	if runErr != nil {
		return nil
	}
	if !jw.started {
		return fmt.Errorf("core: trace writer: EndTrace without BeginTrace")
	}
	footer := "]}\n"
	if !jw.wroteStep {
		footer = "null}\n"
	}
	if _, err := jw.bw.WriteString(footer); err != nil {
		return err
	}
	return jw.bw.Flush()
}

// Steps returns the number of records written so far.
func (jw *TraceJSONWriter) Steps() int { return jw.steps }

// EncodeJSON writes the trace as JSON, allowing runs to be archived and
// re-analyzed (folded, costed on new machines) without re-executing the
// algorithm.  It streams through TraceJSONWriter, so encoding buffers
// one superstep at a time rather than rendering the whole document.
//
//nob:deterministic
func (t *Trace) EncodeJSON(w io.Writer) error {
	jw := NewTraceJSONWriter(w)
	if err := jw.BeginTrace(t.V, t.LogV); err != nil {
		return err
	}
	for i := range t.Steps {
		if err := jw.WriteStep(t.Steps[i]); err != nil {
			return err
		}
	}
	return jw.EndTrace(nil)
}

// TraceJSONReader is a TraceSource over the JSON wire format: it
// decodes one superstep per Next, so analyses can consume trace files
// (or pipes) far larger than RAM.  It reads the one schema
// TraceJSONWriter writes, with a hand-written scanner rather than
// encoding/json, and applies the same validation as the NOBTRC01
// reader: the header's v must be a power of two with log_v = log2(v),
// and every step must pass the structural checks of FoldSummary.Observe
// plus "no more pairs than messages" and "every pair endpoint in
// [0, v)".
//
// Accepted:
//   - insignificant JSON whitespace (space, tab, CR, LF) between tokens;
//   - header keys "v", "log_v" and "steps", matched exactly, in any
//     order with "steps" last; the steps value is an array or null;
//   - step keys "Label", "Degree", "Messages" and "Pairs" in any order
//     and ASCII case (so "label" works); a missing key leaves its zero
//     value and a repeated key keeps its last value;
//   - Degree and Pairs as an array or null; a Pairs array of [src, dst]
//     elements yields a non-nil list, null a nil one;
//   - integers in JSON syntax that fit their field (int for Label, v and
//     log_v, int64 for Degree and Messages, int32 for pair elements).
//
// Rejected, beyond the validation above:
//   - any key not listed, including unknown step keys (encoding/json
//     ignored those), keys containing an escape sequence and keys longer
//     than 16 bytes;
//   - pair elements that are not exactly two integers (encoding/json
//     read [[1]] as (1,0) and dropped the 3 of [[1,2,3]]);
//   - null where an integer is expected, fractions, exponents, leading
//     zeros and integers that overflow their field;
//   - a Degree array longer than log_v+1, as soon as it is.
//
// Bytes after the closing brace of the trace object are not examined.
type TraceJSONReader struct {
	r          io.Reader
	buf        []byte // read buffer; buf[pos:end] is unconsumed
	pos, end   int
	rerr       error // sticky error from r
	hitEnd     bool  // the scanner has run past the last byte of input
	v, logV    int
	labelBound int // zero until the header has been read
	idx        int
	stepsNull  bool
	done       bool
	rec        StepRec
	degree     []int64 // rec.Degree's backing array, reused across steps
	src, dst   []int32 // pair columns of the step being read, reused
}

// jsonReadBuf is the reader's buffer size.
const jsonReadBuf = 64 << 10

// maxJSONKey is the longest object key the reader accepts; every key of
// the schema is shorter.
const maxJSONKey = 16

// NewTraceJSONReader parses the trace header from r and positions the
// reader at the first superstep.
func NewTraceJSONReader(r io.Reader) (*TraceJSONReader, error) {
	jr := &TraceJSONReader{r: r, buf: make([]byte, jsonReadBuf)}
	if err := jr.readHeader(); err != nil {
		return nil, err
	}
	return jr, nil
}

// fill refills the drained buffer, reporting whether any bytes arrived.
func (jr *TraceJSONReader) fill() bool {
	for tries := 0; jr.rerr == nil && tries < 100; tries++ {
		n, err := jr.r.Read(jr.buf)
		if err != nil {
			jr.rerr = err
		}
		if n > 0 {
			jr.pos, jr.end = 0, n
			return true
		}
	}
	if jr.rerr == nil {
		jr.rerr = io.ErrNoProgress
	}
	return false
}

// peek returns the next byte without consuming it, or 0 at the end of
// input.  No byte 0 is valid where the grammar looks for a token, so the
// scanner needs no separate end-of-input branch; fail reports the read
// error instead of the syntax error it causes.
func (jr *TraceJSONReader) peek() byte {
	if jr.pos == jr.end && !jr.fill() {
		jr.hitEnd = true
		return 0
	}
	return jr.buf[jr.pos]
}

// next consumes and returns the next byte, or 0 at the end of input.
func (jr *TraceJSONReader) next() byte {
	c := jr.peek()
	if jr.pos < jr.end {
		jr.pos++
	}
	return c
}

// space skips whitespace and returns the byte after it, unconsumed.
func (jr *TraceJSONReader) space() byte {
	for {
		switch c := jr.peek(); c {
		case ' ', '\t', '\n', '\r':
			jr.pos++
		default:
			return c
		}
	}
}

// token skips whitespace and consumes the byte after it.
func (jr *TraceJSONReader) token() byte {
	for {
		switch c := jr.next(); c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
}

// fail builds a decode error naming the step (or the header) it
// happened in.  Once the input has run out it reports the read error
// (io.ErrUnexpectedEOF for a clean EOF) rather than the syntax it
// interrupted.
func (jr *TraceJSONReader) fail(format string, args ...any) error {
	where := "trace header"
	if jr.labelBound > 0 {
		where = fmt.Sprintf("trace step %d", jr.idx)
	}
	if jr.hitEnd {
		err := jr.rerr
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("core: decoding %s: %w", where, err)
	}
	return fmt.Errorf("core: decoding %s: "+format, append([]any{where}, args...)...)
}

// expect skips whitespace and consumes the byte want.
func (jr *TraceJSONReader) expect(want byte) error {
	if c := jr.token(); c != want {
		return jr.fail("expected %q, got %q", want, c)
	}
	return nil
}

// key reads an object key and the colon after it into dst.
func (jr *TraceJSONReader) key(dst *[maxJSONKey]byte) ([]byte, error) {
	if err := jr.expect('"'); err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		switch c := jr.next(); {
		case c == '"':
			return dst[:n], jr.expect(':')
		case c == '\\':
			return nil, jr.fail("escaped object key %q...", dst[:n])
		case c < 0x20:
			return nil, jr.fail("unterminated object key %q", dst[:n])
		case n == maxJSONKey:
			return nil, jr.fail("object key %q... longer than %d bytes", dst[:n], maxJSONKey)
		default:
			dst[n] = c
		}
	}
}

// int reads a JSON integer that must fit in bits bits, after optional
// whitespace.  It rejects what encoding/json rejects when decoding into
// a Go integer of that size: fractions, exponents, overflow and — being
// invalid JSON — leading zeros and a lone minus sign.
func (jr *TraceJSONReader) int(bits uint) (int64, error) {
	c := jr.token()
	neg := c == '-'
	if neg {
		c = jr.next()
	}
	if c < '0' || c > '9' {
		return 0, jr.fail("expected integer, got %q", c)
	}
	// Nineteen decimal digits always fit in a uint64, so the range check
	// waits for the last digit.
	u, digits := uint64(c-'0'), 1
	for u != 0 {
		c = jr.peek()
		if c < '0' || c > '9' {
			break
		}
		jr.pos++
		if digits++; digits > 19 {
			return 0, jr.fail("integer overflows int%d", bits)
		}
		u = u*10 + uint64(c-'0')
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if u > limit {
		return 0, jr.fail("integer overflows int%d", bits)
	}
	switch jr.peek() {
	case '.', 'e', 'E':
		return 0, jr.fail("non-integer number")
	case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return 0, jr.fail("integer with a leading zero")
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// null consumes the rest of a null literal whose 'n' has been consumed.
func (jr *TraceJSONReader) null() error {
	if jr.next() != 'u' || jr.next() != 'l' || jr.next() != 'l' {
		return jr.fail("invalid literal, want null")
	}
	return nil
}

// array reads null or a JSON array after optional whitespace, calling
// elem once per element, and reports whether the value was null.
func (jr *TraceJSONReader) array(elem func() error) (null bool, err error) {
	switch c := jr.token(); c {
	case 'n':
		return true, jr.null()
	case '[':
	default:
		return false, jr.fail("expected array or null, got %q", c)
	}
	if jr.space() == ']' {
		jr.pos++
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		switch c := jr.token(); c {
		case ',':
		case ']':
			return false, nil
		default:
			return false, jr.fail("expected ',' or ']' in array, got %q", c)
		}
	}
}

func (jr *TraceJSONReader) readHeader() error {
	if err := jr.expect('{'); err != nil {
		return err
	}
	var haveV, haveLogV bool
	var kb [maxJSONKey]byte
	for {
		key, err := jr.key(&kb)
		if err != nil {
			return err
		}
		switch string(key) {
		case "v":
			v, err := jr.int(strconv.IntSize)
			if err != nil {
				return err
			}
			jr.v, haveV = int(v), true
		case "log_v":
			lv, err := jr.int(strconv.IntSize)
			if err != nil {
				return err
			}
			jr.logV, haveLogV = int(lv), true
		case "steps":
			if !haveV || !haveLogV {
				return jr.fail(`"steps" precedes "v"/"log_v"`)
			}
			if jr.v < 1 || jr.v&(jr.v-1) != 0 {
				return fmt.Errorf("core: trace has invalid v=%d", jr.v)
			}
			if lv, lerr := TryLog2(jr.v); lerr != nil || jr.logV != lv {
				return fmt.Errorf("core: trace log_v=%d inconsistent with v=%d", jr.logV, jr.v)
			}
			switch c := jr.token(); c {
			case '[':
			case 'n':
				if err := jr.null(); err != nil {
					return err
				}
				jr.stepsNull = true
			default:
				return jr.fail("expected steps array, got %q", c)
			}
			jr.labelBound = max(jr.logV, 1)
			jr.degree = make([]int64, 0, jr.logV+1)
			return nil
		default:
			return jr.fail("unexpected trace header key %q", key)
		}
		if err := jr.expect(','); err != nil {
			return err
		}
	}
}

// V returns the machine width declared by the trace header, LogV its
// log.
func (jr *TraceJSONReader) V() int    { return jr.v }
func (jr *TraceJSONReader) LogV() int { return jr.logV }

// Next implements TraceSource.  The returned record, and its Degree, are
// reused by the following Next call; its Pairs are not.
func (jr *TraceJSONReader) Next() (*StepRec, error) {
	if jr.done {
		return nil, io.EOF
	}
	end := jr.stepsNull
	if !end {
		switch c := jr.token(); {
		case c == ']':
			end = true
		case jr.idx > 0 && c == ',':
			if err := jr.expect('{'); err != nil {
				return nil, err
			}
		case jr.idx > 0 || c != '{':
			return nil, jr.fail("expected step or end of steps array, got %q", c)
		}
	}
	if end {
		if err := jr.expect('}'); err != nil {
			return nil, err
		}
		jr.done = true
		return nil, io.EOF
	}
	if err := jr.readStep(); err != nil {
		return nil, err
	}
	if err := validateStep(&jr.rec, jr.idx, jr.logV, jr.labelBound); err != nil {
		return nil, err
	}
	jr.idx++
	return &jr.rec, nil
}

// readStep parses one step object into jr.rec; the opening brace has
// been consumed.  Pairs collect in reused columns and are copied into a
// list sized to the pairs present, which the record keeps.
func (jr *TraceJSONReader) readStep() error {
	jr.rec = StepRec{}
	if jr.space() == '}' {
		jr.pos++
		return nil
	}
	var kb, lower [maxJSONKey]byte
	for {
		key, err := jr.key(&kb)
		if err != nil {
			return err
		}
		for i, b := range key {
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			lower[i] = b
		}
		switch string(lower[:len(key)]) {
		case "label":
			l, err := jr.int(strconv.IntSize)
			if err != nil {
				return err
			}
			jr.rec.Label = int(l)
		case "messages":
			if jr.rec.Messages, err = jr.int(64); err != nil {
				return err
			}
		case "degree":
			deg := jr.degree[:0]
			null, err := jr.array(func() error {
				if len(deg) > jr.logV {
					return jr.fail("more than %d degree entries", jr.logV+1)
				}
				d, err := jr.int(64)
				deg = append(deg, d)
				return err
			})
			if err != nil {
				return err
			}
			jr.degree, jr.rec.Degree = deg, deg
			if null {
				jr.rec.Degree = nil
			}
		case "pairs":
			src, dst := jr.src[:0], jr.dst[:0]
			null, err := jr.array(func() error {
				return jr.readPair(&src, &dst)
			})
			if err != nil {
				return err
			}
			jr.src, jr.dst = src, dst
			switch {
			case null:
				jr.rec.Pairs = nil
			case len(src) == 0:
				jr.rec.Pairs = &PairList{}
			default:
				jr.rec.Pairs = pairListOver(slices.Clone(src), slices.Clone(dst))
			}
		default:
			return jr.fail("unknown step key %q", key)
		}
		switch c := jr.token(); c {
		case '}':
			return nil
		case ',':
		default:
			return jr.fail("expected ',' or '}' after step field, got %q", c)
		}
	}
}

// readPair reads one [src, dst] element onto the pair columns; both
// endpoints must be VPs of the machine.
func (jr *TraceJSONReader) readPair(src, dst *[]int32) error {
	if err := jr.expect('['); err != nil {
		return err
	}
	s, err := jr.int(32)
	if err != nil {
		return err
	}
	if c := jr.token(); c != ',' {
		if c == ']' {
			return jr.fail("pair %d has one element, want [src, dst]", len(*src))
		}
		return jr.fail("expected ',' in pair %d, got %q", len(*src), c)
	}
	d, err := jr.int(32)
	if err != nil {
		return err
	}
	if c := jr.token(); c != ']' {
		if c == ',' {
			return jr.fail("pair %d has more than two elements, want [src, dst]", len(*src))
		}
		return jr.fail("expected ']' closing pair %d, got %q", len(*src), c)
	}
	if s < 0 || s >= int64(jr.v) || d < 0 || d >= int64(jr.v) {
		return jr.fail("pair %d is [%d, %d], outside [0, %d)", len(*src), s, d, jr.v)
	}
	*src, *dst = append(*src, int32(s)), append(*dst, int32(d))
	return nil
}

// Close implements TraceSource.  The reader does not own the underlying
// stream.
func (jr *TraceJSONReader) Close() error { return nil }

// validateStep checks the structural invariants of one decoded step,
// shared by both codec readers.
func validateStep(rec *StepRec, i, logV, labelBound int) error {
	if rec.Label < 0 || rec.Label >= labelBound {
		return fmt.Errorf("core: trace step %d has invalid label %d", i, rec.Label)
	}
	if rec.Messages < 0 {
		return fmt.Errorf("core: trace step %d declares %d messages", i, rec.Messages)
	}
	// Every pair is one message.  The binary reader checks its declared
	// pair count before reading columns; this catches decoded JSON pairs.
	if n := rec.Pairs.Len(); int64(n) > rec.Messages {
		return fmt.Errorf("core: trace step %d declares %d pairs for %d messages", i, n, rec.Messages)
	}
	if len(rec.Degree) != logV+1 {
		return fmt.Errorf("core: trace step %d has %d degree entries, want %d", i, len(rec.Degree), logV+1)
	}
	for j, d := range rec.Degree {
		if d < 0 {
			return fmt.Errorf("core: trace step %d degree[%d] negative", i, j)
		}
		if j <= rec.Label && d != 0 {
			return fmt.Errorf("core: trace step %d has nonzero degree at fold %d <= label %d", i, j, rec.Label)
		}
	}
	return nil
}
