package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreSingleFlight(t *testing.T) {
	s := NewStore[int]()
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := s.Get("k", func() (int, error) {
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
		v, err := s.Get(k, func() (string, error) { return "v" + k, nil })
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
	if _, err := s.Get("b", func() (string, error) { recomputed = true; return "vb", nil }); err != nil {
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
		v, err := s.Get("slow", func() (int, error) {
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
		if _, err := s.Get(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A second waiter joins the in-flight computation (a hit).
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := s.Get("slow", func() (int, error) {
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

// TestStoreForgetIf: conditional removal touches only completed entries
// whose outcome matches the predicate — the guard that keeps a stale
// waiter from evicting a fresh recomputation.
func TestStoreForgetIf(t *testing.T) {
	s := NewStore[int]()
	boom := errors.New("boom")
	isBoom := func(_ int, err error) bool { return errors.Is(err, boom) }
	if s.ForgetIf("k", isBoom) {
		t.Fatal("ForgetIf removed an absent key")
	}
	if _, err := s.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if !s.ForgetIf("k", isBoom) {
		t.Fatal("ForgetIf did not remove the matching error entry")
	}
	// A fresh successful entry for the same key must survive a stale
	// ForgetIf with the old predicate.
	if _, err := s.Get("k", func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if s.ForgetIf("k", isBoom) {
		t.Fatal("stale ForgetIf evicted the fresh entry")
	}
	if v, _, ok := s.Peek("k"); !ok || v != 5 {
		t.Fatalf("fresh entry lost: %d, %v", v, ok)
	}
	// In-flight entries are never touched.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Get("slow", func() (int, error) { close(started); <-release; return 1, nil })
	}()
	<-started
	if s.ForgetIf("slow", func(int, error) bool { return true }) {
		t.Error("ForgetIf removed an in-flight entry")
	}
	close(release)
	wg.Wait()
	if _, _, ok := s.Peek("slow"); !ok {
		t.Error("in-flight entry vanished after completion")
	}
}

func TestStorePeek(t *testing.T) {
	s := NewStore[int]()
	if _, _, ok := s.Peek("k"); ok {
		t.Fatal("Peek of absent key succeeded")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("failed Peek moved counters: %+v", st)
	}
	if _, err := s.Get("k", func() (int, error) { return 3, nil }); err != nil {
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
	slow := func() (int, error) {
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
			vals[i], _ = s.Fill("slow", slow)
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
	if v, err := s.Get("slow", func() (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 5 {
		t.Errorf("Get after Fill = %d, %v", v, err)
	}

	boom := errors.New("transient")
	if _, err := s.Fill("bad", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("Fill error = %v, want %v", err, boom)
	}
	if _, _, ok := s.Peek("bad"); ok {
		t.Error("Fill kept an error")
	}

	// "slow" is the most recent entry; two more values evict it.
	s.Fill("a", func() (int, error) { return 1, nil })
	s.Fill("b", func() (int, error) { return 2, nil })
	if _, _, ok := s.Peek("slow"); ok {
		t.Error("LRU bound not applied to Fill")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}
