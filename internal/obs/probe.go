package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Probe records spans, instant events, and counter samples for export as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// Every method is safe to call on a nil *Probe and returns immediately,
// so instrumented code pays exactly one nil check when probing is off —
// the contract core's engines rely on (see the probe-contract section of
// package core's documentation).
//
// A probe is bounded: once the event buffer is full, each new event
// overwrites the oldest one, which is counted in Dropped().  A long-lived
// daemon can therefore keep a probe attached and always holds the most
// recent window of events.
//
//nob:nilsafe
type Probe struct {
	epoch time.Time

	mu      sync.Mutex
	events  []probeEvent // ring once full; events[head] is the oldest
	head    int
	max     int
	dropped int64
	threads map[int]string
}

// probeEvent is one recorded event, already in Chrome trace-event shape.
type probeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since epoch
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultProbeCapacity bounds NewProbe's event buffer: ample for a CLI
// run, small enough that an always-on daemon probe stays under ~100 MB.
const DefaultProbeCapacity = 1 << 19

// NewProbe returns a probe with the default event capacity.
func NewProbe() *Probe { return NewBoundedProbe(DefaultProbeCapacity) }

// NewBoundedProbe returns a probe that keeps the newest capacity events
// and counts the overwritten older ones in Dropped().
func NewBoundedProbe(capacity int) *Probe {
	if capacity < 1 {
		capacity = 1
	}
	return &Probe{epoch: time.Now(), max: capacity, threads: make(map[int]string)}
}

// Enabled reports whether the probe records anything; false on nil.
func (p *Probe) Enabled() bool { return p != nil }

// Now returns the current time if the probe is non-nil, and the zero
// time otherwise — so hot paths write `start := probe.Now()` without a
// separate nil check (the zero time is only ever passed back into the
// same nil probe).
func (p *Probe) Now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *Probe) since(t time.Time) float64 {
	return float64(t.Sub(p.epoch)) / float64(time.Microsecond)
}

func (p *Probe) record(e probeEvent) {
	p.mu.Lock()
	if len(p.events) < p.max {
		p.events = append(p.events, e)
	} else {
		p.events[p.head] = e
		p.head = (p.head + 1) % p.max
		p.dropped++
	}
	p.mu.Unlock()
}

// Span records a completed duration event from start to now.  tid
// distinguishes concurrent tracks (worker index, job slot); args are
// optional key/value annotations shown in the trace viewer.
func (p *Probe) Span(cat, name string, tid int, start time.Time, args map[string]any) {
	if p == nil {
		return
	}
	p.SpanBetween(cat, name, tid, start, time.Now(), args)
}

// SpanBetween records a completed duration event with an explicit end.
func (p *Probe) SpanBetween(cat, name string, tid int, start, end time.Time, args map[string]any) {
	if p == nil {
		return
	}
	ts := p.since(start)
	dur := float64(end.Sub(start)) / float64(time.Microsecond)
	if dur < 0 {
		dur = 0
	}
	p.record(probeEvent{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: 1, TID: tid, Args: args})
}

// Instant records a zero-duration marker event.
func (p *Probe) Instant(cat, name string, tid int, args map[string]any) {
	if p == nil {
		return
	}
	p.record(probeEvent{Name: name, Cat: cat, Ph: "i", TS: p.since(time.Now()), PID: 1, TID: tid, Args: args})
}

// Counter records a counter sample (rendered as a stacked area track).
// values maps series name to numeric value.
func (p *Probe) Counter(cat, name string, tid int, values map[string]any) {
	if p == nil {
		return
	}
	p.record(probeEvent{Name: name, Cat: cat, Ph: "C", TS: p.since(time.Now()), PID: 1, TID: tid, Args: values})
}

// NameThread attaches a human-readable name to a tid, emitted as trace
// metadata so viewers label the track.
func (p *Probe) NameThread(tid int, name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.threads[tid] = name
	p.mu.Unlock()
}

// Len returns the number of recorded events.
func (p *Probe) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// Dropped returns how many events were overwritten at capacity.
func (p *Probe) Dropped() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Reset discards all recorded events (capacity and epoch are kept).
func (p *Probe) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.events = p.events[:0]
	p.head = 0
	p.dropped = 0
	p.mu.Unlock()
}

// chromeTrace is the top-level Chrome trace-event JSON document.
type chromeTrace struct {
	TraceEvents     []probeEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace writes the recorded events as Chrome trace-event
// JSON, oldest first.  The probe remains usable (and keeps its events)
// afterwards.
// The output is byte-deterministic for a given event sequence: thread
// metadata is emitted in ascending tid order, not map order, so two
// exports of the same run diff clean.
//
//nob:deterministic
func (p *Probe) WriteChromeTrace(w io.Writer) error {
	if p == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	p.mu.Lock()
	events := make([]probeEvent, 0, len(p.events)+len(p.threads)+1)
	events = append(events, probeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "netoblivious"},
	})
	tids := make([]int, 0, len(p.threads))
	for tid := range p.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, probeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": p.threads[tid]},
		})
	}
	events = append(events, p.events[p.head:]...)
	events = append(events, p.events[:p.head]...)
	dropped := p.dropped
	p.mu.Unlock()

	doc := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		doc.OtherData = map[string]any{"dropped_events": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
