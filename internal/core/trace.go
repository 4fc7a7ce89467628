package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"netoblivious/internal/obs"
)

// StepRec holds the communication metrics of a single superstep, recorded
// once per run and valid for every folding of the algorithm.
//
// A record handed to a consumer is lent, Degree and Pairs included: it
// is valid only until the TraceSink.WriteStep that receives it returns,
// or until the TraceSource's next Next.  A consumer that keeps a record
// copies it.
type StepRec struct {
	// Label is the label of the sync terminating the superstep: the
	// superstep is a Label-superstep and its messages stay within
	// Label-clusters.
	Label int

	// Degree[j], for 1 <= j <= log2(v), is h_s(n, 2^j): the degree of the
	// h-relation this superstep induces when the algorithm is folded onto
	// a machine with 2^j processors (each processor simulating a block of
	// v/2^j consecutively numbered VPs).  Only messages crossing a block
	// boundary count; the degree of a block is max(messages sent,
	// messages received).  Degree[0] is always 0 (a single processor
	// exchanges no messages).  For j <= Label the entry is 0 because an
	// i-superstep is local on machines with at most 2^i processors.
	Degree []int64

	// Messages is the total number of messages (including dummy messages
	// and self-messages) exchanged in the superstep across the machine.
	Messages int64

	// Pairs lists the (src, dst) of every message of the superstep; both
	// lie in [0, v), which the trace decoders check.  The BlockEngine
	// orders them by source VP, then send order, at every worker count
	// (the GoroutineEngine orders clusters by barrier completion).
	// Populated only under Options.RecordMessages.
	// The chunked columnar representation keeps recording message-heavy
	// supersteps from repeatedly re-growing (and transiently doubling)
	// one flat slice.  The run recycles the list's chunks once the
	// WriteStep that received the record returns.
	Pairs *PairList
}

// Trace is the communication record of one run of an algorithm on M(v):
// the machine's dimensions and the fold summary of every superstep.  The
// superstep records themselves go to Options.Sink, when the run has one,
// and are not kept.  For static algorithms (the class covered by the
// paper's optimality theorem) the Trace depends only on the input size,
// so a single run characterizes the algorithm's communication for every
// folding, every σ and every D-BSP parameter vector.
type Trace struct {
	// V is the number of virtual processors of the specification machine.
	V int
	// LogV is log2(V) (0 when V == 1).
	LogV int

	mu sync.Mutex

	// sum is the fold summary of every step that has left the pending
	// window.  A Trace built as a struct literal has none.
	sum *FoldSummary

	// The pending window: window[i] is superstep base+i and seen[i]
	// counts the VPs merged into it.
	window []StepRec
	seen   []int
	base   int
	sink   TraceSink

	// probe, when non-nil (Options.Probe), receives one span per
	// superstep as the step leaves the window; probeLast is the end time
	// of the previous span, so spans tile the run without gaps.
	probe     *obs.Probe
	probeLast time.Time
}

func newTrace(v, logV int) *Trace {
	return &Trace{V: v, LogV: logV, sum: newFoldSummary(v, logV)}
}

// merge folds the metrics of one cluster's barrier completion into the
// pending window.  levelMax is indexed by j-label-1 for j in (label,
// logV]; vps is the number of VPs in the merging cluster, which is how
// the window knows a superstep is complete (all V VPs accounted for).
// The GoroutineEngine merges once per cluster — clusters run ahead of
// each other, so the window can transiently hold a few supersteps —
// while the BlockEngine merges whole supersteps and keeps the window at
// one.  Pairs are built by the engines outside the lock and spliced in
// here — an O(chunks) pointer move, never a per-pair copy.
func (t *Trace) merge(step, label int, levelMax []int64, msgs int64, pairs *PairList, vps int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := step - t.base
	if idx < 0 {
		return fmt.Errorf("core: internal error: superstep %d merged after leaving the pending window", step)
	}
	for len(t.window) <= idx {
		t.window = append(t.window, StepRec{Label: -1, Degree: make([]int64, t.LogV+1)})
		t.seen = append(t.seen, 0)
	}
	rec := &t.window[idx]
	if rec.Label == -1 {
		rec.Label = label
	} else if rec.Label != label {
		return fmt.Errorf("core: superstep %d has mismatched sync labels %d and %d across clusters; network-oblivious algorithms must use the same label sequence on every VP", step, rec.Label, label)
	}
	for jj, v := range levelMax {
		j := label + 1 + jj
		if v > rec.Degree[j] {
			rec.Degree[j] = v
		}
	}
	rec.Messages += msgs
	if pairs.Len() > 0 {
		if rec.Pairs == nil {
			rec.Pairs = &PairList{}
		}
		rec.Pairs.Splice(pairs)
	}
	t.seen[idx] += vps
	return t.flushLocked()
}

// probeStepDoneLocked records the span of a completed superstep: from
// the end of the previous superstep (or the run start) to now, annotated
// with the sync label, the message total, and fold_ops — the upper bound
// messages x fold levels on degree-counter updates the step induced.
func (t *Trace) probeStepDoneLocked(step int, rec *StepRec) {
	end := time.Now()
	start := t.probeLast
	t.probeLast = end
	t.probe.SpanBetween("engine", "superstep "+strconv.Itoa(step), 0, start, end, map[string]any{
		"label":    rec.Label,
		"messages": rec.Messages,
		"fold_ops": rec.Messages * int64(len(rec.Degree)-1-rec.Label),
	})
}

// flushLocked delivers the completed prefix of the pending window, in
// superstep order: into the summary, then to the sink when the run has
// one.  The sink's WriteStep only borrows the record: once it returns,
// error or not, the step's pooled pair chunks go back to the pool for
// the following supersteps.  Nothing is retained.
func (t *Trace) flushLocked() error {
	for len(t.window) > 0 && t.seen[0] >= t.V {
		if t.seen[0] > t.V {
			return fmt.Errorf("core: internal error: superstep %d merged %d VPs on a machine of %d", t.base, t.seen[0], t.V)
		}
		rec := t.window[0]
		if t.probe != nil {
			t.probeStepDoneLocked(t.base, &rec)
		}
		if err := t.sum.Observe(&rec); err != nil {
			return fmt.Errorf("core: internal error: %w", err)
		}
		if t.sink != nil {
			err := t.sink.WriteStep(rec)
			rec.Pairs.release()
			if err != nil {
				return fmt.Errorf("core: trace sink: %w", err)
			}
		}
		t.base++
		t.window[0] = StepRec{}
		t.window, t.seen = t.window[1:], t.seen[1:]
	}
	return nil
}

// pendingSteps returns the size of the pending window: supersteps
// merged by some but not all VPs.  Zero at the end of every successful
// run.
func (t *Trace) pendingSteps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.window)
}

// NumSupersteps returns the number of supersteps executed.
func (t *Trace) NumSupersteps() int { return t.sum.NumSupersteps() }

// TotalMessages returns the total number of messages exchanged during the
// run, including dummy messages.
func (t *Trace) TotalMessages() int64 { return t.sum.TotalMessages() }

// Summary returns the run's fold summary: the S_i and F_i vectors every
// metric of the trace is computed from, built as each superstep
// completed.  It is the Trace's own summary, not a copy; callers must
// not Observe into it.  A Trace built as a struct literal, rather than
// by a run, has none: Summary is nil and NumSupersteps and
// TotalMessages panic.
func (t *Trace) Summary() *FoldSummary { return t.sum }

// logOf returns log2(p) for a positive power of two, or -1 otherwise.
func logOf(p int) int {
	if p <= 0 || p&(p-1) != 0 {
		return -1
	}
	l := 0
	for 1<<uint(l) < p {
		l++
	}
	return l
}

// Log2 returns log2(p) for a positive power of two.  It is exported for
// use by the metric packages.
//
// Panic contract: any p that is not a positive power of two panics
// (p = 1 is valid and returns 0).  Use TryLog2 when p comes from
// untrusted input.
func Log2(p int) int {
	l := logOf(p)
	if l < 0 {
		panic(fmt.Sprintf("core: %d is not a positive power of two", p))
	}
	return l
}

// TryLog2 is Log2 with an error instead of a panic: it returns log2(p)
// for a positive power of two (0 for p = 1) and an error otherwise.
func TryLog2(p int) (int, error) {
	l := logOf(p)
	if l < 0 {
		return 0, fmt.Errorf("core: %d is not a positive power of two", p)
	}
	return l, nil
}
