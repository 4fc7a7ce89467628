// Package sinkown exercises the sinkown analyzer: a run lends each
// StepRec to WriteStep, so a WriteStep must not keep the record, its
// Pairs or its Degree.
package sinkown

import (
	"slices"

	"netoblivious/internal/core"
)

var lastPairs *core.PairList

// keeper stores lent records every way the analyzer reports.
type keeper struct {
	last    core.StepRec
	steps   []core.StepRec
	pairs   *core.PairList
	deg     []int64
	byLabel map[int][]int64
	ptr     *core.StepRec
	recs    chan core.StepRec
	later   func() int
}

func (k *keeper) WriteStep(rec core.StepRec) error {
	k.last = rec                                    // want "stores rec in k.last"
	k.steps = append(k.steps, rec)                  // want "stores append\(k.steps, rec\) in k.steps"
	k.pairs = rec.Pairs                             // want "stores rec.Pairs in k.pairs"
	k.deg = rec.Degree[1:]                          // want "stores rec.Degree\[1:\] in k.deg"
	k.byLabel[rec.Label] = rec.Degree               // want "in k.byLabel\[rec.Label\]"
	lastPairs = rec.Pairs                           // want "in lastPairs"
	*k.ptr = rec                                    // want "in \*k.ptr"
	k.ptr = &core.StepRec{Pairs: rec.Pairs}         // want "in k.ptr"
	k.later = func() int { return rec.Pairs.Len() } // want "in k.later"
	k.recs <- rec                                   // want "sends rec on a channel"
	go func() { _ = rec.Pairs.Len() }()             // want "go statement in WriteStep refers to the lent record rec"
	return nil
}

func (k *keeper) BeginTrace(v, logV int) error { return nil }
func (k *keeper) EndTrace(runErr error) error  { return nil }

// aliaser launders the pairs through locals before storing them.
type aliaser struct {
	pairs *core.PairList
	hold  struct{ p *core.PairList }
}

func (a *aliaser) WriteStep(rec core.StepRec) error {
	p := rec.Pairs
	var q = p
	var local struct{ p *core.PairList }
	local.p = q
	a.hold = local // want "stores local in a.hold"
	a.pairs = q    // want "stores q in a.pairs"
	return nil
}

// copier keeps copies and scalars, reads locally and passes the record
// on: nothing is reported.
type copier struct {
	inner    core.TraceSink
	total    int64
	labels   []int
	deg      []int64
	pairs    *core.PairList
	checksum int64
}

func (c *copier) WriteStep(rec core.StepRec) error {
	c.total += rec.Messages
	c.labels = append(c.labels, rec.Label)
	c.deg = slices.Clone(rec.Degree)
	c.pairs = core.PairListOf(rec.Pairs.Pairs())
	for src, dst := range rec.Pairs.All() {
		c.checksum += int64(src) ^ int64(dst)
	}
	deg := rec.Degree
	c.checksum += deg[0]
	rec.Pairs = nil
	_ = rec
	return c.inner.WriteStep(rec)
}

// audit stores under an explicit, justified exemption.
type audit struct{ last core.StepRec }

func (a *audit) WriteStep(rec core.StepRec) error {
	//nolint:sinkown // the fixture's own exemption: this record is never read
	a.last = rec
	return nil
}

// keep is not a WriteStep: a function that owns its argument may keep it.
func keep(k *keeper, rec core.StepRec) {
	k.last = rec
}

// degrees has a WriteStep of another signature, which lends nothing.
type degrees struct{ deg []int64 }

func (d *degrees) WriteStep(deg []int64) error {
	d.deg = deg
	return nil
}
