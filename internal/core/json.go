package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// traceDTO is the serialized form of a Trace.
type traceDTO struct {
	V     int       `json:"v"`
	LogV  int       `json:"log_v"`
	Steps []StepRec `json:"steps"`
}

// TraceJSONWriter is a TraceSink that encodes supersteps to the wire
// format incrementally, one record at a time, so serializing a trace
// never materializes more than a single superstep.  The bytes produced
// are identical to encoding a whole in-memory Trace at once — a
// streamed file and EncodeJSON agree byte for byte — because the writer
// emits exactly the header, per-element encoding and footer that
// encoding/json produces for traceDTO.
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
	started   bool
	ended     bool
	wroteStep bool
	steps     int
}

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
	sep := byte(',')
	if !jw.wroteStep {
		sep = '['
		jw.wroteStep = true
	}
	if err := jw.bw.WriteByte(sep); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: encoding trace step %d: %w", jw.steps, err)
	}
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
		// encoding/json renders a nil Steps slice as null.
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
// decodes one superstep per Next, validating the same structural
// invariants DecodeJSON enforces, so analyses can consume trace files
// (or pipes) far larger than RAM.
type TraceJSONReader struct {
	dec        *json.Decoder
	v, logV    int
	labelBound int
	idx        int
	stepsNull  bool
	done       bool
	rec        StepRec
}

// NewTraceJSONReader parses the trace header from r and positions the
// reader at the first superstep.
func NewTraceJSONReader(r io.Reader) (*TraceJSONReader, error) {
	jr := &TraceJSONReader{dec: json.NewDecoder(r)}
	if err := jr.readHeader(); err != nil {
		return nil, err
	}
	return jr, nil
}

func (jr *TraceJSONReader) readHeader() error {
	fail := func(err error) error {
		return fmt.Errorf("core: decoding trace: %w", err)
	}
	tok, err := jr.dec.Token()
	if err != nil {
		return fail(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fail(fmt.Errorf("expected object, got %v", tok))
	}
	var haveV, haveLogV bool
	for {
		tok, err := jr.dec.Token()
		if err != nil {
			return fail(err)
		}
		key, ok := tok.(string)
		if !ok {
			return fail(fmt.Errorf("expected object key, got %v", tok))
		}
		switch key {
		case "v":
			if err := jr.dec.Decode(&jr.v); err != nil {
				return fail(err)
			}
			haveV = true
		case "log_v":
			if err := jr.dec.Decode(&jr.logV); err != nil {
				return fail(err)
			}
			haveLogV = true
		case "steps":
			if !haveV || !haveLogV {
				return fail(fmt.Errorf(`"steps" precedes "v"/"log_v" in trace header`))
			}
			if jr.v < 1 || jr.v&(jr.v-1) != 0 {
				return fmt.Errorf("core: trace has invalid v=%d", jr.v)
			}
			if lv, lerr := TryLog2(jr.v); lerr != nil || jr.logV != lv {
				return fmt.Errorf("core: trace log_v=%d inconsistent with v=%d", jr.logV, jr.v)
			}
			jr.labelBound = jr.logV
			if jr.labelBound < 1 {
				jr.labelBound = 1
			}
			tok, err := jr.dec.Token()
			if err != nil {
				return fail(err)
			}
			switch d := tok.(type) {
			case json.Delim:
				if d != '[' {
					return fail(fmt.Errorf("expected steps array, got %v", tok))
				}
			case nil:
				jr.stepsNull = true
			default:
				return fail(fmt.Errorf("expected steps array, got %v", tok))
			}
			return nil
		default:
			return fail(fmt.Errorf("unexpected trace header key %q", key))
		}
	}
}

// V returns the machine width declared by the trace header, LogV its
// log.
func (jr *TraceJSONReader) V() int    { return jr.v }
func (jr *TraceJSONReader) LogV() int { return jr.logV }

// Next implements TraceSource.  The returned record is reused by the
// following Next call.
func (jr *TraceJSONReader) Next() (*StepRec, error) {
	if jr.done {
		return nil, io.EOF
	}
	if jr.stepsNull || !jr.dec.More() {
		jr.done = true
		if !jr.stepsNull {
			if tok, err := jr.dec.Token(); err != nil {
				return nil, fmt.Errorf("core: decoding trace: %w", err)
			} else if d, ok := tok.(json.Delim); !ok || d != ']' {
				return nil, fmt.Errorf("core: decoding trace: expected end of steps array, got %v", tok)
			}
		}
		if tok, err := jr.dec.Token(); err != nil {
			return nil, fmt.Errorf("core: decoding trace: %w", err)
		} else if d, ok := tok.(json.Delim); !ok || d != '}' {
			return nil, fmt.Errorf("core: decoding trace: expected end of trace object, got %v", tok)
		}
		return nil, io.EOF
	}
	jr.rec = StepRec{}
	if err := jr.dec.Decode(&jr.rec); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if err := validateStep(&jr.rec, jr.idx, jr.logV, jr.labelBound); err != nil {
		return nil, err
	}
	jr.idx++
	return &jr.rec, nil
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

// DecodeJSON reads a trace written by EncodeJSON and validates its
// structural invariants.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var dto traceDTO
	dec := json.NewDecoder(r)
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if dto.V < 1 || dto.V&(dto.V-1) != 0 {
		return nil, fmt.Errorf("core: trace has invalid v=%d", dto.V)
	}
	if dto.LogV != Log2(dto.V) {
		return nil, fmt.Errorf("core: trace log_v=%d inconsistent with v=%d", dto.LogV, dto.V)
	}
	labelBound := dto.LogV
	if labelBound < 1 {
		labelBound = 1
	}
	for i := range dto.Steps {
		if err := validateStep(&dto.Steps[i], i, dto.LogV, labelBound); err != nil {
			return nil, err
		}
	}
	return &Trace{V: dto.V, LogV: dto.LogV, Steps: dto.Steps}, nil
}
