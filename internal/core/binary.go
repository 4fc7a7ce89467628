package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// This file implements the compact binary trace format, NOBTRC01.  Like
// the JSON codec it is fully streaming — one superstep in memory at a
// time, on both sides — but it stores each step's pairs as two flat
// []int32 columns (the Schedule's CSR column layout), so a stored
// trace costs ~8 bytes per message instead of the ~16 bytes of decimal
// JSON, and decoding is a bulk byte copy instead of a parse.
//
// Layout (little-endian):
//
//	magic "NOBTRC01" | u32 v | u32 logV
//	per step: u8 0x01 | u32 label | i64 messages
//	          | (logV+1) × i64 degree
//	          | u64 pairCount | pairCount × i32 src | pairCount × i32 dst
//	footer:   u8 0xFF | u64 stepCount
//
// The footer makes truncation detectable: a reader that hits EOF before
// the footer (or a step count that disagrees) reports a corrupt trace.

const traceBinaryMagic = "NOBTRC01"

const (
	binTagStep byte = 0x01
	binTagEnd  byte = 0xFF
)

// TraceBinaryWriter is a TraceSink encoding the compact binary format.
type TraceBinaryWriter struct {
	// ReleasePairs has the same contract as TraceJSONWriter.ReleasePairs:
	// enable only when the writer owns its records exclusively.
	ReleasePairs bool

	bw      *bufio.Writer
	scratch []byte
	started bool
	ended   bool
	steps   int
}

// NewTraceBinaryWriter returns a writer encoding to w.
func NewTraceBinaryWriter(w io.Writer) *TraceBinaryWriter {
	return &TraceBinaryWriter{bw: bufio.NewWriter(w)}
}

// BeginTrace implements TraceSink.
func (bw *TraceBinaryWriter) BeginTrace(v, logV int) error {
	if bw.started {
		return fmt.Errorf("core: trace writer: BeginTrace called twice; a codec writer serializes exactly one trace (one machine per run)")
	}
	bw.started = true
	b := bw.buf(len(traceBinaryMagic) + 8)
	b = append(b, traceBinaryMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(v))
	b = binary.LittleEndian.AppendUint32(b, uint32(logV))
	_, err := bw.bw.Write(b)
	return err
}

// WriteStep implements TraceSink.  The binary frame layout is part of
// the archived-trace format and must be byte-identical across runs of
// the same trace.
//
//nob:deterministic
func (bw *TraceBinaryWriter) WriteStep(rec StepRec) error {
	if !bw.started || bw.ended {
		return fmt.Errorf("core: trace writer: WriteStep outside BeginTrace/EndTrace")
	}
	n := rec.Pairs.Len()
	b := bw.buf(1 + 4 + 8 + len(rec.Degree)*8 + 8)
	b = append(b, binTagStep)
	b = binary.LittleEndian.AppendUint32(b, uint32(rec.Label))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Messages))
	for _, d := range rec.Degree {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	if _, err := bw.bw.Write(b); err != nil {
		return err
	}
	if n > 0 {
		if err := bw.writeColumn(rec.Pairs, false); err != nil {
			return err
		}
		if err := bw.writeColumn(rec.Pairs, true); err != nil {
			return err
		}
	}
	bw.steps++
	if bw.ReleasePairs {
		rec.Pairs.Release()
	}
	return nil
}

// writeColumn streams one side (src or dst) of the pair list, chunk by
// chunk, through the scratch buffer.
func (bw *TraceBinaryWriter) writeColumn(p *PairList, dstSide bool) error {
	for _, c := range p.chunks {
		col := c.src
		if dstSide {
			col = c.dst
		}
		b := bw.buf(len(col) * 4)
		for _, v := range col {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		if _, err := bw.bw.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// EndTrace implements TraceSink.  Like the JSON writer it finalizes
// only successful runs, leaving failed output without its footer so it
// can never decode as complete.
func (bw *TraceBinaryWriter) EndTrace(runErr error) error {
	if bw.ended {
		return nil
	}
	bw.ended = true
	if runErr != nil {
		return nil
	}
	if !bw.started {
		return fmt.Errorf("core: trace writer: EndTrace without BeginTrace")
	}
	b := bw.buf(9)
	b = append(b, binTagEnd)
	b = binary.LittleEndian.AppendUint64(b, uint64(bw.steps))
	if _, err := bw.bw.Write(b); err != nil {
		return err
	}
	return bw.bw.Flush()
}

// Steps returns the number of records written so far.
func (bw *TraceBinaryWriter) Steps() int { return bw.steps }

func (bw *TraceBinaryWriter) buf(n int) []byte {
	if cap(bw.scratch) < n {
		bw.scratch = make([]byte, 0, n)
	}
	return bw.scratch[:0]
}

// TraceBinaryReader is a TraceSource over the compact binary format.
type TraceBinaryReader struct {
	br         *bufio.Reader
	v, logV    int
	labelBound int
	idx        int
	done       bool
	rec        StepRec
	scratch    []byte
}

// NewTraceBinaryReader parses the header from r and positions the
// reader at the first superstep.  The caller must have consumed
// nothing from r (including the magic).
func NewTraceBinaryReader(r io.Reader) (*TraceBinaryReader, error) {
	br := &TraceBinaryReader{br: bufio.NewReader(r)}
	hdr := make([]byte, len(traceBinaryMagic)+8)
	if _, err := io.ReadFull(br.br, hdr); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if string(hdr[:len(traceBinaryMagic)]) != traceBinaryMagic {
		return nil, fmt.Errorf("core: decoding trace: bad magic %q", hdr[:len(traceBinaryMagic)])
	}
	br.v = int(binary.LittleEndian.Uint32(hdr[len(traceBinaryMagic):]))
	br.logV = int(binary.LittleEndian.Uint32(hdr[len(traceBinaryMagic)+4:]))
	if br.v < 1 || br.v&(br.v-1) != 0 {
		return nil, fmt.Errorf("core: trace has invalid v=%d", br.v)
	}
	if lv, err := TryLog2(br.v); err != nil || br.logV != lv {
		return nil, fmt.Errorf("core: trace log_v=%d inconsistent with v=%d", br.logV, br.v)
	}
	br.labelBound = br.logV
	if br.labelBound < 1 {
		br.labelBound = 1
	}
	return br, nil
}

// V returns the machine width declared by the trace header, LogV its
// log.
func (br *TraceBinaryReader) V() int    { return br.v }
func (br *TraceBinaryReader) LogV() int { return br.logV }

// Next implements TraceSource.  The returned record is reused by the
// following Next call.
func (br *TraceBinaryReader) Next() (*StepRec, error) {
	if br.done {
		return nil, io.EOF
	}
	tag, err := br.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w (truncated trace file?)", err)
	}
	switch tag {
	case binTagEnd:
		br.done = true
		var cnt [8]byte
		if _, err := io.ReadFull(br.br, cnt[:]); err != nil {
			return nil, fmt.Errorf("core: decoding trace: %w (truncated trace file?)", err)
		}
		if got := binary.LittleEndian.Uint64(cnt[:]); got != uint64(br.idx) {
			return nil, fmt.Errorf("core: decoding trace: footer declares %d steps but %d were read", got, br.idx)
		}
		return nil, io.EOF
	case binTagStep:
	default:
		return nil, fmt.Errorf("core: decoding trace: unknown record tag %#x at step %d", tag, br.idx)
	}
	fixed := br.buf(4 + 8 + (br.logV+1)*8 + 8)
	if _, err := io.ReadFull(br.br, fixed); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w (truncated trace file?)", err)
	}
	br.rec = StepRec{
		Label:    int(int32(binary.LittleEndian.Uint32(fixed))),
		Degree:   make([]int64, br.logV+1),
		Messages: int64(binary.LittleEndian.Uint64(fixed[4:])),
	}
	for j := range br.rec.Degree {
		br.rec.Degree[j] = int64(binary.LittleEndian.Uint64(fixed[12+j*8:]))
	}
	// Validate before reading the columns, so a hostile header is
	// rejected before any column allocation.
	if err := validateStep(&br.rec, br.idx, br.logV, br.labelBound); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(fixed[12+(br.logV+1)*8:])
	if n > uint64(br.rec.Messages) {
		return nil, fmt.Errorf("core: decoding trace: step %d declares %d pairs for %d messages", br.idx, n, br.rec.Messages)
	}
	if n > math.MaxInt {
		return nil, fmt.Errorf("core: decoding trace: step %d declares %d pairs, more than an int can count", br.idx, n)
	}
	if n > 0 {
		src, err := br.readColumn(int(n), "src")
		if err != nil {
			return nil, err
		}
		dst, err := br.readColumn(int(n), "dst")
		if err != nil {
			return nil, err
		}
		br.rec.Pairs = pairListOver(src, dst)
	}
	br.idx++
	return &br.rec, nil
}

// readChunk bounds one column read, in values: the pair count is
// untrusted, so a column grows only as its bytes actually arrive.
const readChunk = 16 << 10

// readColumn reads n int32 values in chunks of at most readChunk.  Every
// value is a pair endpoint (side names which) and must lie in [0, v).
func (br *TraceBinaryReader) readColumn(n int, side string) ([]int32, error) {
	col := make([]int32, 0, min(n, readChunk))
	for len(col) < n {
		k := min(n-len(col), readChunk)
		raw := br.buf(4 * k)
		if _, err := io.ReadFull(br.br, raw); err != nil {
			return nil, fmt.Errorf("core: decoding trace: %w (truncated trace file?)", err)
		}
		for i := 0; i < k; i++ {
			x := binary.LittleEndian.Uint32(raw[4*i:])
			if x >= uint32(br.v) {
				return nil, fmt.Errorf("core: decoding trace step %d: pair %d has %s %d, outside [0, %d)", br.idx, len(col), side, int32(x), br.v)
			}
			col = append(col, int32(x))
		}
	}
	return col, nil
}

// Close implements TraceSource.  The reader does not own the underlying
// stream.
func (br *TraceBinaryReader) Close() error { return nil }

func (br *TraceBinaryReader) buf(n int) []byte {
	if cap(br.scratch) < n {
		br.scratch = make([]byte, n)
	}
	return br.scratch[:n]
}

// TraceFormat selects a trace file encoding.
type TraceFormat int

const (
	// TraceJSON is the archival wire format (EncodeJSON).
	TraceJSON TraceFormat = iota
	// TraceBinary is the compact binary format (NOBTRC01).
	TraceBinary
)

// TraceFileSink is a TraceSink writing a trace file atomically: output
// goes to a temporary sibling (path + ".tmp") created at BeginTrace and
// renamed over path only when EndTrace sees a successful run.  A failed
// or cancelled run removes the temporary, so a partial trace file is
// never left behind under the target name.
type TraceFileSink struct {
	path   string
	format TraceFormat
	f      *os.File
	inner  TraceSink
}

// NewTraceFileSink returns a sink that will write path in the given
// format.  Nothing touches the filesystem until BeginTrace.  The sink
// owns its records: pooled pair chunks are recycled as steps are
// encoded.
func NewTraceFileSink(path string, format TraceFormat) *TraceFileSink {
	return &TraceFileSink{path: path, format: format}
}

func (fs *TraceFileSink) tmpPath() string { return fs.path + ".tmp" }

// BeginTrace implements TraceSink.
func (fs *TraceFileSink) BeginTrace(v, logV int) error {
	if fs.inner != nil {
		return fmt.Errorf("core: trace writer: BeginTrace called twice; a codec writer serializes exactly one trace (one machine per run)")
	}
	f, err := os.OpenFile(fs.tmpPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("core: trace sink: %w", err)
	}
	fs.f = f
	// The sink owns its records: pooled pair chunks are recycled as
	// steps are encoded.
	switch fs.format {
	case TraceBinary:
		w := NewTraceBinaryWriter(f)
		w.ReleasePairs = true
		fs.inner = w
	default:
		w := NewTraceJSONWriter(f)
		w.ReleasePairs = true
		fs.inner = w
	}
	return fs.inner.BeginTrace(v, logV)
}

// WriteStep implements TraceSink.
func (fs *TraceFileSink) WriteStep(rec StepRec) error {
	if fs.inner == nil {
		return fmt.Errorf("core: trace writer: WriteStep outside BeginTrace/EndTrace")
	}
	return fs.inner.WriteStep(rec)
}

// EndTrace implements TraceSink: finalize and rename on success, remove
// the temporary on failure.
func (fs *TraceFileSink) EndTrace(runErr error) error {
	if fs.f == nil {
		return nil
	}
	f := fs.f
	fs.f = nil
	if runErr != nil {
		f.Close()
		os.Remove(fs.tmpPath())
		return nil
	}
	if err := fs.inner.EndTrace(nil); err != nil {
		f.Close()
		os.Remove(fs.tmpPath())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(fs.tmpPath())
		return fmt.Errorf("core: trace sink: %w", err)
	}
	if err := os.Rename(fs.tmpPath(), fs.path); err != nil {
		os.Remove(fs.tmpPath())
		return fmt.Errorf("core: trace sink: %w", err)
	}
	return nil
}

// closerSource wraps a TraceSource with the owning file handle.
type closerSource struct {
	TraceSource
	c io.Closer
}

func (cs *closerSource) Close() error {
	err := cs.TraceSource.Close()
	if cerr := cs.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewTraceSource returns a streaming TraceSource over r, sniffing the
// encoding: the NOBTRC01 magic selects the binary reader, anything
// else is treated as the JSON wire format.  The caller retains
// ownership of r; Close does not close it.
func NewTraceSource(r io.Reader) (TraceSource, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(traceBinaryMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if bytes.Equal(head, []byte(traceBinaryMagic)) {
		return NewTraceBinaryReader(br)
	}
	return NewTraceJSONReader(br)
}

// OpenTraceFile opens a trace file of either format for streaming.
// Closing the returned source closes the file.
func OpenTraceFile(path string) (TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewTraceSource(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &closerSource{TraceSource: src, c: f}, nil
}
