package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestSingleVP checks the degenerate machine M(1): label 0 is allowed (the
// paper's log convention makes log 1 = 1) and self-messages are local.
func TestSingleVP(t *testing.T) {
	tr, err := Run(1, func(vp *VP[int]) {
		vp.Send(0, 42)
		vp.Sync(0)
		if got, ok := vp.Receive(); !ok || got != 42 {
			t.Errorf("self message: got (%v, %v), want (42, true)", got, ok)
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSupersteps() != 2 {
		t.Errorf("supersteps = %d, want 2", tr.NumSupersteps())
	}
	if tr.TotalMessages() != 1 {
		t.Errorf("messages = %d, want 1", tr.TotalMessages())
	}
}

// TestPairExchange verifies delivery, inbox ordering and degree recording
// for a two-VP exchange.
func TestPairExchange(t *testing.T) {
	tr, _, err := collect(2, func(vp *VP[string]) {
		other := 1 - vp.ID()
		vp.Send(other, "a")
		vp.Send(other, "b")
		vp.Sync(0)
		in := vp.Inbox()
		if len(in) != 2 {
			t.Errorf("VP %d inbox size %d, want 2", vp.ID(), len(in))
		}
		if in[0].Payload != "a" || in[1].Payload != "b" {
			t.Errorf("VP %d inbox out of order: %v", vp.ID(), in)
		}
		if in[0].Src != other {
			t.Errorf("VP %d: src = %d, want %d", vp.ID(), in[0].Src, other)
		}
		vp.Sync(0)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Steps[0].Degree[1]; got != 2 {
		t.Errorf("superstep 0 degree at fold 2: %d, want 2", got)
	}
	if got := tr.Steps[1].Degree[1]; got != 0 {
		t.Errorf("superstep 1 degree at fold 2: %d, want 0", got)
	}
}

// TestDeterministicInboxOrder checks the documented (src, send-order)
// delivery order with many senders.
func TestDeterministicInboxOrder(t *testing.T) {
	const v = 16
	_, err := Run(v, func(vp *VP[int]) {
		// Everyone sends two messages to VP 0.
		vp.Send(0, vp.ID()*10)
		vp.Send(0, vp.ID()*10+1)
		vp.Sync(0)
		if vp.ID() == 0 {
			in := vp.Inbox()
			if len(in) != 2*v {
				t.Errorf("inbox size %d, want %d", len(in), 2*v)
			}
			for k, msg := range in {
				want := (k/2)*10 + k%2
				if msg.Payload != want {
					t.Errorf("inbox[%d] = %d, want %d", k, msg.Payload, want)
				}
			}
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterConfinement: messages that escape the cluster of the
// terminating sync must abort the run.
func TestClusterConfinement(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		if vp.ID() == 0 {
			vp.Send(2, 1) // VP 2 is outside VP 0's 1-cluster {0,1}
		}
		vp.Sync(1)
		vp.Sync(0)
	})
	if err == nil || !strings.Contains(err.Error(), "outside its 1-cluster") {
		t.Fatalf("want cluster-confinement error, got %v", err)
	}
}

// TestLabelSequenceEnforced: two clusters using different labels at the
// same superstep is a staticity violation and must be reported (either as
// a label mismatch or as a deadlock, depending on interleaving).
func TestLabelSequenceEnforced(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		if vp.ID() < 2 {
			vp.Sync(1)
			vp.Sync(0)
		} else {
			vp.Sync(0) // wrong: needs all four VPs, others are at sync(1)
		}
	})
	if err == nil {
		t.Fatal("want error for mismatched label sequences, got nil")
	}
}

// TestUnevenSuperstepCounts: VPs that run different numbers of supersteps
// must be detected.
func TestUnevenSuperstepCounts(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		vp.Sync(1)
		if vp.ID() < 2 {
			vp.Sync(1)
		}
	})
	if err == nil {
		t.Fatal("want error for uneven superstep counts, got nil")
	}
}

// TestMissingFinalSync: a VP terminating with staged messages is an error.
func TestMissingFinalSync(t *testing.T) {
	_, err := Run(2, func(vp *VP[int]) {
		vp.Sync(0)
		vp.Send(0, 7)
	})
	if err == nil || !strings.Contains(err.Error(), "staged messages") {
		t.Fatalf("want staged-messages error, got %v", err)
	}
}

// TestPanicPropagation: a panic in VP code surfaces as an error, not a
// crash or a hang.
func TestPanicPropagation(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		if vp.ID() == 3 {
			panic("boom")
		}
		vp.Sync(0)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// TestBadLabel: out-of-range sync labels abort.
func TestBadLabel(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		vp.Sync(5)
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want label range error, got %v", err)
	}
}

// TestBadDst: out-of-range destinations abort.
func TestBadDst(t *testing.T) {
	_, err := Run(4, func(vp *VP[int]) {
		vp.Send(99, 0)
		vp.Sync(0)
	})
	if err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want destination range error, got %v", err)
	}
}

// TestNonPowerOfTwo rejects invalid machine sizes.
func TestNonPowerOfTwo(t *testing.T) {
	if _, err := Run(3, func(vp *VP[int]) {}); err == nil {
		t.Fatal("want error for v=3")
	}
	if _, err := Run(0, func(vp *VP[int]) {}); err == nil {
		t.Fatal("want error for v=0")
	}
}

// TestIndependentClusters: clusters synchronizing at a deep label proceed
// independently; the global label sequence is still common.
func TestIndependentClusters(t *testing.T) {
	const v = 8
	c, tr, err := collect(v, func(vp *VP[int]) {
		// Three supersteps inside 2-clusters (pairs), then one global.
		for k := 0; k < 3; k++ {
			partner := vp.ID() ^ 1
			vp.Send(partner, k)
			vp.Sync(2)
			if got, ok := vp.Receive(); !ok || got != k {
				t.Errorf("VP %d superstep %d: got (%v,%v)", vp.ID(), k, got, ok)
			}
		}
		vp.Sync(0)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSupersteps() != 4 {
		t.Fatalf("supersteps = %d, want 4", tr.NumSupersteps())
	}
	for k := 0; k < 3; k++ {
		rec := c.Steps[k]
		if rec.Label != 2 {
			t.Errorf("superstep %d label = %d, want 2", k, rec.Label)
		}
		// Pair exchange: crossing only at the finest fold (j=3).
		if rec.Degree[3] != 1 {
			t.Errorf("superstep %d degree[8] = %d, want 1", k, rec.Degree[3])
		}
		if rec.Degree[2] != 0 || rec.Degree[1] != 0 {
			t.Errorf("superstep %d coarse degrees nonzero: %v", k, rec.Degree)
		}
	}
}

// TestDegreesAcrossFolds exercises the fold accounting with a precise
// hand-computed pattern.
func TestDegreesAcrossFolds(t *testing.T) {
	// v=8. VP 0 sends 3 messages to VP 7 (crosses every fold boundary);
	// VP 4 sends 1 message to VP 5 (crosses only fold 8); VP 2 sends one
	// to VP 3 and one to VP 0.
	tr, _, err := collect(8, func(vp *VP[int]) {
		switch vp.ID() {
		case 0:
			vp.Send(7, 1)
			vp.Send(7, 2)
			vp.Send(7, 3)
		case 4:
			vp.Send(5, 1)
		case 2:
			vp.Send(3, 1)
			vp.Send(0, 1)
		}
		vp.Sync(0)
		vp.Sync(0)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := tr.Steps[0]
	// Fold 2 (blocks {0..3},{4..7}): block 0 sends 3 (to 7), receives 0;
	// block 1 receives 3. Messages 2->3, 2->0, 4->5 are internal. h = 3.
	if rec.Degree[1] != 3 {
		t.Errorf("degree fold 2 = %d, want 3", rec.Degree[1])
	}
	// Fold 4 (blocks of 2): 0->7 crosses (block0 sends 3, block3 recv 3);
	// 2->0 crosses (block1 sends 1, block0 recv 1); 2->3, 4->5 internal.
	// h = max(3,1,...) = 3.
	if rec.Degree[2] != 3 {
		t.Errorf("degree fold 4 = %d, want 3", rec.Degree[2])
	}
	// Fold 8: per-VP: VP0 sends 3 recv 1; VP7 recv 3; VP4 sends 1; VP2
	// sends 2; VP3 recv 1; VP5 recv 1. h = 3.
	if rec.Degree[3] != 3 {
		t.Errorf("degree fold 8 = %d, want 3", rec.Degree[3])
	}
	if rec.Messages != 6 {
		t.Errorf("messages = %d, want 6", rec.Messages)
	}
}

// TestDummyMessagesCountedNotDelivered checks the wiseness-padding
// mechanism.
func TestDummyMessagesCountedNotDelivered(t *testing.T) {
	tr, _, err := collect(4, func(vp *VP[int]) {
		vp.SendDummy(vp.ID() ^ 2)
		vp.Sync(0)
		if len(vp.Inbox()) != 0 {
			t.Errorf("VP %d received a dummy message", vp.ID())
		}
		vp.Sync(0)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps[0].Messages != 4 {
		t.Errorf("messages = %d, want 4", tr.Steps[0].Messages)
	}
	// Fold 2: each block of two VPs sends (and receives) two crossing
	// messages, h=2; fold 4: one per VP, h=1.
	if tr.Steps[0].Degree[1] != 2 || tr.Steps[0].Degree[2] != 1 {
		t.Errorf("dummy degrees = %v, want [0 2 1]", tr.Steps[0].Degree)
	}
}

// TestRecordMessages checks the optional pair recording.
func TestRecordMessages(t *testing.T) {
	tr, _, err := collect(4, func(vp *VP[int]) {
		vp.Send((vp.ID()+1)%4, 0)
		vp.Sync(0)
		vp.Sync(0)
	}, Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps[0].Pairs.Len() != 4 {
		t.Fatalf("pairs = %v, want 4 entries", tr.Steps[0].Pairs.Pairs())
	}
	seen := map[[2]int32]bool{}
	for _, p := range tr.Steps[0].Pairs.Pairs() {
		seen[p] = true
	}
	for i := int32(0); i < 4; i++ {
		if !seen[[2]int32{i, (i + 1) % 4}] {
			t.Errorf("missing pair %d->%d", i, (i+1)%4)
		}
	}
}

// TestRecordMessagesNeedsSink: a run keeps no superstep records, so
// recording pairs without a sink to receive them is an error, reported
// before any VP runs.
func TestRecordMessagesNeedsSink(t *testing.T) {
	for _, eng := range []Engine{GoroutineEngine{}, BlockEngine{}} {
		var ran atomic.Int64
		_, err := RunOpt(4, func(vp *VP[int]) {
			ran.Add(1)
			vp.Sync(0)
		}, Options{RecordMessages: true, Engine: eng})
		if err == nil || !strings.Contains(err.Error(), "RecordMessages needs a Sink") {
			t.Errorf("%s: err = %v, want the missing-sink error", eng.Name(), err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%s: %d VPs ran before the options were rejected", eng.Name(), n)
		}
	}
}

// TestInboxDiscardedAtNextSync: messages not consumed are dropped at the
// following barrier (BSP semantics).
func TestInboxDiscardedAtNextSync(t *testing.T) {
	_, err := Run(2, func(vp *VP[int]) {
		vp.Send(1-vp.ID(), 9)
		vp.Sync(0)
		vp.Sync(0) // do not read
		if n := len(vp.Inbox()); n != 0 {
			t.Errorf("VP %d: stale inbox of size %d", vp.ID(), n)
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSAndF checks the FoldSummary vectors on a structured run.
func TestSAndF(t *testing.T) {
	// v=8: one 0-superstep where everyone sends to their complement
	// (crosses all folds), two 1-supersteps of pair exchange within
	// 1-clusters, final sync(0).
	tr, err := Run(8, func(vp *VP[int]) {
		vp.Send(7-vp.ID(), 0)
		vp.Sync(0)
		for k := 0; k < 2; k++ {
			vp.Send(vp.ID()^1, 0)
			vp.Sync(1)
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := tr.Summary()
	s := fs.S()
	if s[0] != 2 || s[1] != 2 || s[2] != 0 {
		t.Errorf("S = %v, want [2 2 0]", s)
	}
	// F at fold p=2: only labels < 1 count, i.e. the 0-supersteps.
	f2 := fs.F(2)
	if len(f2) != 1 || f2[0] != 4 {
		t.Errorf("F(2) = %v, want [4]", f2)
	}
	// F at fold p=8: 0-superstep contributes degree 1 per VP; the pair
	// exchanges contribute 1 each at label 1.
	f8 := fs.F(8)
	if f8[0] != 1 || f8[1] != 2 || f8[2] != 0 {
		t.Errorf("F(8) = %v, want [1 2 0]", f8)
	}
}
