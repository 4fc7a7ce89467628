package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// bg is the context of callers that never leave.
var bg = context.Background()

func TestStoreSingleFlight(t *testing.T) {
	s := NewBoundedStore[int](0)
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := s.Get(bg, "k", func(context.Context) (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Hits != 31 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 31 hits / 1 miss", st)
	}
}

// TestStoreLRUEvictionOrder fills a bounded store beyond capacity and
// asserts that exactly the least-recently-used entries fall out, with Get
// recency (not insertion order) defining use.
func TestStoreLRUEvictionOrder(t *testing.T) {
	s := NewBoundedStore[string](3)
	if s.Capacity() != 3 {
		t.Fatalf("Capacity = %d", s.Capacity())
	}
	get := func(k string) {
		t.Helper()
		v, err := s.Get(bg, k, func(context.Context) (string, error) { return "v" + k, nil })
		if err != nil || v != "v"+k {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	get("a")
	get("b")
	get("c")
	get("a") // refresh a: b is now the LRU entry
	get("d") // evicts b
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if _, _, ok := s.Peek("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, _, ok := s.Peek(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// An evicted key recomputes on the next Get.
	var recomputed bool
	if _, err := s.Get(bg, "b", func(context.Context) (string, error) { recomputed = true; return "vb", nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("Get of evicted key did not recompute")
	}
}

// TestStoreLRUSingleFlightInteraction: an in-flight computation is never
// evicted — waiters that joined it observe its outcome even while newer
// completed entries churn the LRU list past capacity.
func TestStoreLRUSingleFlightInteraction(t *testing.T) {
	s := NewBoundedStore[int](1)
	release := make(chan struct{})
	started := make(chan struct{})
	var inflightVal atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := s.Get(bg, "slow", func(context.Context) (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Errorf("slow Get: %v", err)
		}
		inflightVal.Store(int64(v))
	}()
	<-started
	// Churn the capacity-1 store while "slow" is in flight.
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("fast%d", i)
		if _, err := s.Get(bg, k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A second waiter joins the in-flight computation (a hit).
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := s.Get(bg, "slow", func(context.Context) (int, error) {
			t.Error("joined computation must not recompute")
			return -1, nil
		})
		if err != nil || v != 42 {
			t.Errorf("joined Get = %d, %v; want 42", v, err)
		}
	}()
	close(release)
	wg.Wait()
	if inflightVal.Load() != 42 {
		t.Errorf("in-flight computation returned %d, want 42", inflightVal.Load())
	}
	// Once completed, "slow" entered the LRU order most-recently-used and
	// the bound holds again.
	if s.Len() > 2 {
		t.Errorf("Len = %d after churn; capacity bound not enforced", s.Len())
	}
}

// TestStoreDropsCancellation: when the last waiter leaves an unfinished
// computation, the store cancels the computation's context, which kept
// the first caller's values, and forgets the key, so the next Get
// recomputes even while the abandoned computation still runs.  A plain
// error stays memoized.
func TestStoreDropsCancellation(t *testing.T) {
	type ctxKey struct{}
	s := NewBoundedStore[int](0)
	started := make(chan struct{})
	release := make(chan struct{})
	seen := make(chan any)
	ctx, cancel := context.WithCancelCause(context.WithValue(bg, ctxKey{}, "rid"))
	errs := make(chan error)
	go func() {
		_, err := s.Get(ctx, "k", func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			seen <- ctx.Value(ctxKey{})
			<-release
			return 0, ctx.Err()
		})
		errs <- err
	}()
	<-started
	gone := errors.New("caller gone")
	cancel(gone)
	if err := <-errs; err != gone {
		t.Errorf("the leaving caller got %v, want its context's cause", err)
	}
	if v := <-seen; v != "rid" {
		t.Errorf("the computation's context carries %v, want the first caller's value", v)
	}
	if _, _, ok := s.Peek("k"); ok || s.Len() != 0 {
		t.Errorf("abandoned computation kept: Peek ok=%v, Len=%d", ok, s.Len())
	}
	if v, err := s.Get(bg, "k", func(context.Context) (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Errorf("Get after abandonment = %d, %v; want a recomputed 7", v, err)
	}
	close(release)
	if st := s.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses", st)
	}

	boom := errors.New("boom")
	computes := 0
	for i := 0; i < 2; i++ {
		if _, err := s.Get(bg, "e", func(context.Context) (int, error) { computes++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("Get %d: %v, want boom", i, err)
		}
	}
	if _, err, ok := s.Peek("e"); computes != 1 || !ok || !errors.Is(err, boom) {
		t.Errorf("a plain error was not memoized: %d computes, Peek ok=%v err=%v", computes, ok, err)
	}
}

// TestStoreWaiterLeavesShared: a caller that leaves a computation others
// still wait for gets its cause and cancels nothing, even the caller
// that started it; the others get the value.
func TestStoreWaiterLeavesShared(t *testing.T) {
	s := NewBoundedStore[int](0)
	started := make(chan struct{})
	release := make(chan struct{})
	var runCtx context.Context
	ctx, cancel := context.WithCancel(bg)
	first := make(chan error)
	go func() {
		_, err := s.Get(ctx, "k", func(ctx context.Context) (int, error) {
			runCtx = ctx
			close(started)
			<-release
			return 9, ctx.Err()
		})
		first <- err
	}()
	<-started
	const joiners = 3
	vals := make(chan int, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			v, err := s.Get(bg, "k", func(context.Context) (int, error) { return -1, nil })
			if err != nil {
				t.Errorf("joined Get: %v", err)
			}
			vals <- v
		}()
	}
	for s.Stats().Hits < joiners {
		runtime.Gosched()
	}
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Errorf("the leaving caller got %v, want context.Canceled", err)
	}
	if err := runCtx.Err(); err != nil {
		t.Errorf("one waiter leaving cancelled the shared computation: %v", err)
	}
	close(release)
	for i := 0; i < joiners; i++ {
		if v := <-vals; v != 9 {
			t.Errorf("joined Get = %d, want 9", v)
		}
	}
	if v, _, ok := s.Peek("k"); !ok || v != 9 {
		t.Errorf("Peek = %d, %v; want the kept 9", v, ok)
	}
}

// TestStoreCancelledContext: a Get whose context has already ended
// returns the context's cause without computing or counting anything,
// for an absent key and for a completed one alike.
func TestStoreCancelledContext(t *testing.T) {
	s := NewBoundedStore[int](0)
	if _, err := s.Get(bg, "done", func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	gone := errors.New("caller gone")
	ctx, cancel := context.WithCancelCause(bg)
	cancel(gone)
	for _, key := range []string{"absent", "done"} {
		_, err := s.Get(ctx, key, func(context.Context) (int, error) {
			t.Errorf("%s: computed under an ended context", key)
			return 0, nil
		})
		if err != gone {
			t.Errorf("%s: Get = %v, want the context's cause", key, err)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || s.Len() != 1 {
		t.Errorf("stats = %+v, Len = %d; want the first Get's miss only", st, s.Len())
	}
}

func TestStorePeek(t *testing.T) {
	s := NewBoundedStore[int](0)
	if _, _, ok := s.Peek("k"); ok {
		t.Fatal("Peek of absent key succeeded")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("failed Peek moved counters: %+v", st)
	}
	if _, err := s.Get(bg, "k", func(context.Context) (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	v, err, ok := s.Peek("k")
	if !ok || err != nil || v != 3 {
		t.Fatalf("Peek = %d, %v, %v", v, err, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestStoreFill: Fill shares one computation with concurrent Fills and
// Gets, counts neither a hit nor a miss, keeps a value under the LRU
// bound and drops an error once its waiters have it.
func TestStoreFill(t *testing.T) {
	s := NewBoundedStore[int](2)
	release := make(chan struct{})
	started := make(chan struct{})
	var computes atomic.Int64
	slow := func(context.Context) (int, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		<-release
		return 5, nil
	}
	var wg sync.WaitGroup
	vals := make([]int, 4)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = s.Fill(bg, "slow", slow)
		}(i)
		if i == 0 {
			<-started
		}
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for one key, want 1", n)
	}
	for i, v := range vals {
		if v != 5 {
			t.Errorf("Fill %d = %d, want 5", i, v)
		}
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Fill moved counters: %+v", st)
	}
	if v, err := s.Get(bg, "slow", func(context.Context) (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 5 {
		t.Errorf("Get after Fill = %d, %v", v, err)
	}

	boom := errors.New("transient")
	if _, err := s.Fill(bg, "bad", func(context.Context) (int, error) { return 0, boom }); err != boom {
		t.Fatalf("Fill error = %v, want %v", err, boom)
	}
	if _, _, ok := s.Peek("bad"); ok {
		t.Error("Fill kept an error")
	}

	// "slow" is the most recent entry; two more values evict it.
	s.Fill(bg, "a", func(context.Context) (int, error) { return 1, nil })
	s.Fill(bg, "b", func(context.Context) (int, error) { return 2, nil })
	if _, _, ok := s.Peek("slow"); ok {
		t.Error("LRU bound not applied to Fill")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}
