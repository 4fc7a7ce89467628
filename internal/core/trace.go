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

	// Pairs lists the (src, dst) of every message of the superstep, in no
	// particular order; both lie in [0, v), which the trace decoders
	// check.  Populated only under Options.RecordMessages.
	// The chunked columnar representation keeps recording message-heavy
	// supersteps from repeatedly re-growing (and transiently doubling)
	// one flat slice.
	Pairs *PairList
}

// Trace is the complete communication record of one run of an algorithm on
// M(v).  For static algorithms (the class covered by the paper's optimality
// theorem) the Trace depends only on the input size, so a single run
// characterizes the algorithm's communication for every folding, every σ
// and every D-BSP parameter vector.
type Trace struct {
	// V is the number of virtual processors of the specification machine.
	V int
	// LogV is log2(V) (0 when V == 1).
	LogV int
	// Steps holds one record per superstep, in superstep order.  In
	// streaming mode (Options.Sink) it is only the pending window of
	// supersteps not yet completed by every VP; finished records are
	// flushed to the sink and removed.
	Steps []StepRec

	mu sync.Mutex

	// Streaming state, used only when sink is non-nil.  base is the
	// superstep index of Steps[0]; seen[i] counts the VPs whose cluster
	// has merged into Steps[i]; flushed and flushedMsgs summarize the
	// records already handed to the sink, keeping NumSupersteps and
	// TotalMessages valid on the metadata-only Trace a streaming run
	// returns.
	sink        TraceSink
	base        int
	seen        []int
	flushed     int
	flushedMsgs int64

	// Probe state, used only when probe is non-nil (Options.Probe).  A
	// superstep's span ends when every VP has merged into its record;
	// probeSeen counts merged VPs per pending step outside streaming mode
	// (streaming mode reuses seen), probeDone is the next step to emit,
	// and probeLast is the end time of the previous span — so spans tile
	// the run without gaps.
	probe     *obs.Probe
	probeSeen []int
	probeDone int
	probeLast time.Time
}

func newTrace(v, logV int) *Trace {
	return &Trace{V: v, LogV: logV}
}

// merge folds the metrics of one cluster's barrier completion into the
// global per-superstep record.  levelMax is indexed by j-label-1 for
// j in (label, logV]; vps is the number of VPs in the merging cluster,
// which is how streaming mode knows a superstep is complete (all V VPs
// accounted for) and can be flushed to the sink.  The GoroutineEngine
// merges once per cluster — clusters run ahead of each other, so the
// pending window can transiently hold a few supersteps — while the
// BlockEngine merges whole supersteps and keeps the window at one.
// Pairs are built by the engines outside the lock and spliced in here —
// an O(chunks) pointer move, never a per-pair copy.
func (t *Trace) merge(step, label int, levelMax []int64, msgs int64, pairs *PairList, vps int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := step - t.base
	if idx < 0 {
		return fmt.Errorf("core: internal error: superstep %d merged after being flushed to the trace sink", step)
	}
	for len(t.Steps) <= idx {
		t.Steps = append(t.Steps, StepRec{Label: -1, Degree: make([]int64, t.LogV+1)})
		if t.sink != nil {
			t.seen = append(t.seen, 0)
		}
	}
	rec := &t.Steps[idx]
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
	if t.sink == nil {
		if t.probe != nil {
			for len(t.probeSeen) <= idx {
				t.probeSeen = append(t.probeSeen, 0)
			}
			t.probeSeen[idx] += vps
			for t.probeDone < len(t.probeSeen) && t.probeSeen[t.probeDone] >= t.V {
				t.probeStepDoneLocked(t.probeDone, &t.Steps[t.probeDone])
				t.probeDone++
			}
		}
		return nil
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

// flushLocked writes the completed prefix of the pending window to the
// sink, in superstep order, and shifts the window.
func (t *Trace) flushLocked() error {
	for len(t.Steps) > 0 && t.seen[0] >= t.V {
		if t.seen[0] > t.V {
			return fmt.Errorf("core: internal error: superstep %d merged %d VPs on a machine of %d", t.base, t.seen[0], t.V)
		}
		rec := t.Steps[0]
		if t.probe != nil {
			t.probeStepDoneLocked(t.base, &rec)
		}
		if err := t.sink.WriteStep(rec); err != nil {
			return fmt.Errorf("core: trace sink: %w", err)
		}
		t.flushed++
		t.flushedMsgs += rec.Messages
		t.base++
		n := copy(t.Steps, t.Steps[1:])
		t.Steps[n] = StepRec{}
		t.Steps = t.Steps[:n]
		m := copy(t.seen, t.seen[1:])
		t.seen = t.seen[:m]
	}
	return nil
}

// recordedSteps returns the number of complete supersteps the trace has
// accounted for (flushed plus pending), under the lock.
func (t *Trace) recordedSteps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushed + len(t.Steps)
}

// pendingSteps returns the size of the streaming window: supersteps
// merged by some but not all VPs.  Zero outside streaming mode and at
// the end of every successful streaming run.
func (t *Trace) pendingSteps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink == nil {
		return 0
	}
	return len(t.Steps)
}

// NumSupersteps returns the number of supersteps executed.  On the
// metadata-only Trace returned by a streaming run it counts the steps
// flushed to the sink.
func (t *Trace) NumSupersteps() int { return t.flushed + len(t.Steps) }

// TotalMessages returns the total number of messages exchanged during the
// run, including dummy messages and, in streaming mode, the messages of
// every step already flushed to the sink.
func (t *Trace) TotalMessages() int64 {
	tot := t.flushedMsgs
	for i := range t.Steps {
		tot += t.Steps[i].Messages
	}
	return tot
}

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
