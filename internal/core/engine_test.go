package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestEngineErrorDetection runs every model-violation scenario on both
// engines: each must detect the violation (with the same primary error
// text where the check is shared) and never hang.
func TestEngineErrorDetection(t *testing.T) {
	scenarios := []struct {
		name string
		v    int
		prog Program[int]
		want string // substring of the error; "" = any error
	}{
		{"cluster-confinement", 4, func(vp *VP[int]) {
			if vp.ID() == 0 {
				vp.Send(2, 1)
			}
			vp.Sync(1)
			vp.Sync(0)
		}, "outside its 1-cluster"},
		{"label-mismatch", 4, func(vp *VP[int]) {
			if vp.ID() < 2 {
				vp.Sync(1)
				vp.Sync(0)
			} else {
				vp.Sync(0)
			}
		}, ""},
		{"uneven-supersteps", 4, func(vp *VP[int]) {
			vp.Sync(1)
			if vp.ID() < 2 {
				vp.Sync(1)
			}
		}, ""},
		{"staged-messages", 2, func(vp *VP[int]) {
			vp.Sync(0)
			vp.Send(0, 7)
		}, "staged messages"},
		{"panic", 4, func(vp *VP[int]) {
			if vp.ID() == 3 {
				panic("boom")
			}
			vp.Sync(0)
		}, "boom"},
		{"bad-label", 4, func(vp *VP[int]) {
			vp.Sync(5)
		}, "out of range"},
		{"bad-dst", 4, func(vp *VP[int]) {
			vp.Send(99, 0)
			vp.Sync(0)
		}, "out-of-range"},
		// Sync(3) on v=16: 2-VP clusters inside 4-VP blocks at W=4, so
		// the superstep is delivered block-locally.  VP 1 strays inside
		// its own block, VP 6 into another worker's.
		{"confinement-local", 16, func(vp *VP[int]) {
			switch vp.ID() {
			case 1:
				vp.Send(2, 1)
			case 6:
				vp.Send(9, 1)
			}
			vp.Sync(3)
		}, "outside its 3-cluster"},
		// Sync(1) on v=16: 8-VP clusters span two workers' blocks at
		// W=4, so the superstep is routed through the buckets.
		{"confinement-routed", 16, func(vp *VP[int]) {
			if vp.ID() == 3 {
				vp.Send(12, 1)
			}
			vp.Sync(1)
		}, "outside its 1-cluster"},
	}
	// The same checks hold for step-form programs, which the BlockEngine
	// calls directly instead of resuming a coroutine, and the
	// GoroutineEngine runs through its Sync loop.
	stepScenarios := []struct {
		name string
		v    int
		step StepFunc[int]
		want string
	}{
		{"step-panic", 4, func(vp *VP[int]) (int, bool) {
			if vp.ID() == 3 {
				panic("boom")
			}
			return 0, vp.Superstep() == 0
		}, "boom"},
		{"step-sync-inside", 4, func(vp *VP[int]) (int, bool) {
			vp.Sync(0)
			return 0, true
		}, "Sync called inside a step function"},
		{"step-bad-label", 4, func(vp *VP[int]) (int, bool) {
			return 5, true
		}, "out of range"},
		{"step-staged-messages", 2, func(vp *VP[int]) (int, bool) {
			if vp.Superstep() == 0 {
				return 0, true
			}
			vp.Send(0, 7)
			return 0, false
		}, "staged messages"},
		// VPs 0 and 1 run Sync(1) then Sync(0); VPs 2 and 3 Sync(0).
		{"step-label-mismatch", 4, func(vp *VP[int]) (int, bool) {
			switch s := vp.Superstep(); {
			case vp.ID() < 2 && s < 2:
				return 1 - s, true
			case vp.ID() >= 2 && s == 0:
				return 0, true
			}
			return 0, false
		}, "label sequence"},
	}
	engines := []Engine{GoroutineEngine{}, BlockEngine{}, BlockEngine{Workers: 1}, BlockEngine{Workers: 2}, BlockEngine{Workers: 4}}
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: want error, got nil", name)
			return
		}
		if want != "" && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not contain %q", name, err, want)
		}
	}
	for _, eng := range engines {
		for _, sc := range scenarios {
			_, err := RunOpt(sc.v, sc.prog, Options{Engine: eng})
			check(fmt.Sprintf("%s/%s-%v", sc.name, eng.Name(), eng), err, sc.want)
		}
		for _, sc := range stepScenarios {
			_, err := RunSteps(sc.v, sc.step, Options{Engine: eng})
			check(fmt.Sprintf("%s/%s-%v", sc.name, eng.Name(), eng), err, sc.want)
		}
		// A step-form program that never ends stops when its context is
		// cancelled, here by VP 0 in superstep 3.
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunSteps(4, func(vp *VP[int]) (int, bool) {
			if vp.ID() == 0 && vp.Superstep() == 3 {
				cancel()
			}
			return 0, true
		}, Options{Engine: eng, Context: ctx})
		cancel()
		name := fmt.Sprintf("step-cancelled/%s-%v", eng.Name(), eng)
		check(name, err, "run cancelled")
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %q does not wrap context.Canceled", name, err)
		}
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range []string{"block", "goroutine"} {
		e, err := EngineByName(name)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("EngineByName(%q).Name() = %q", name, e.Name())
		}
	}
	if _, err := EngineByName("quantum"); err == nil {
		t.Error("EngineByName(quantum): want error")
	}
}

// TestCoroCacheReuse hammers the BlockEngine's coroutine cache: many
// runs of different sizes, payload types and outcomes (success, panic,
// model violation) interleaved and in parallel must all behave like
// fresh machines — no state may leak through recycled coroutines.
func TestCoroCacheReuse(t *testing.T) {
	eng := BlockEngine{}
	okProg := func(vp *VP[int]) {
		vp.Send(vp.V()-1-vp.ID(), vp.ID())
		vp.Sync(0)
		if got, ok := vp.Receive(); !ok || got != vp.V()-1-vp.ID() {
			panic(fmt.Sprintf("VP %d: bad payload %v %v", vp.ID(), got, ok))
		}
		vp.Sync(0)
	}
	for round := 0; round < 30; round++ {
		v := 1 << uint(round%6)
		switch round % 3 {
		case 0: // success
			if _, err := RunOpt(v, okProg, Options{Engine: eng}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case 1: // VP panic: coroutines must survive and stay reusable
			_, err := RunOpt(v, func(vp *VP[int]) {
				if vp.ID() == v-1 {
					panic("kaboom")
				}
				vp.Sync(0)
			}, Options{Engine: eng})
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("round %d: want kaboom, got %v", round, err)
			}
		case 2: // different payload type through the same cache
			if _, err := RunOpt(v, func(vp *VP[string]) {
				vp.Send(vp.ID(), "x")
				vp.Sync(0)
				vp.Sync(0)
			}, Options{Engine: eng}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	// Concurrent runs share the cache.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := RunOpt(64, okProg, Options{Engine: eng}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent runner %d: %v", i, err)
		}
	}
}

// TestCoroCacheBound: the coroutine cache never holds more than
// maxPooledVPCoros idle coroutines.  A run larger than the bound stops
// its excess as it ends, so no goroutine beyond the bound stays parked;
// concurrent runs share the one bound; and a later small run takes
// every coroutine it needs from the cache.
//
// The concurrent runs are a quarter of the cap each, so that together
// they need no more goroutines at once than the single large run: the
// runtime never frees a goroutine's descriptor, so every goroutine the
// test binary once had at the same time stays live heap that each later
// GC marks (eight runs at half the cap kept about 25 MiB).
func TestCoroCacheBound(t *testing.T) {
	syncs := func(vp *VP[int]) {
		for l := 0; l < vp.LogV(); l++ {
			vp.Sync(l)
		}
	}
	cached := func() []*vpCoro {
		vpCoros.mu.Lock()
		defer vpCoros.mu.Unlock()
		return slices.Clone(vpCoros.free)
	}
	// Leave the cache as large as it was found: every parked coroutine
	// adds to each later GC cycle of the test binary.
	kept := len(cached())
	t.Cleanup(func() {
		vpCoros.mu.Lock()
		excess := slices.Clone(vpCoros.free[min(kept, len(vpCoros.free)):])
		vpCoros.free = vpCoros.free[:len(vpCoros.free)-len(excess)]
		vpCoros.mu.Unlock()
		stopAll(excess)
	})

	before := runtime.NumGoroutine()
	if _, err := RunOpt(2*maxPooledVPCoros, syncs, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := len(cached()); n > maxPooledVPCoros {
		t.Errorf("after a run of %d VPs the cache holds %d coroutines, cap is %d", 2*maxPooledVPCoros, n, maxPooledVPCoros)
	}
	if grown := runtime.NumGoroutine() - before; grown > maxPooledVPCoros {
		t.Errorf("a run of %d VPs left %d more goroutines, want at most the cap %d", 2*maxPooledVPCoros, grown, maxPooledVPCoros)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunOpt(maxPooledVPCoros/4, syncs, Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	warm := cached()
	if len(warm) > maxPooledVPCoros {
		t.Errorf("after 8 concurrent runs of %d VPs the cache holds %d coroutines, cap is %d", maxPooledVPCoros/4, len(warm), maxPooledVPCoros)
	}

	const small = 1024
	if len(warm) < small {
		t.Fatalf("cache holds %d coroutines, want at least %d warm", len(warm), small)
	}
	if _, err := RunOpt(small, syncs, Options{}); err != nil {
		t.Fatal(err)
	}
	known := make(map[*vpCoro]bool, len(warm))
	for _, c := range warm {
		known[c] = true
	}
	fresh := 0
	for _, c := range cached() {
		if !known[c] {
			fresh++
		}
	}
	if fresh > 0 {
		t.Errorf("a run of %d VPs on a warm cache created %d coroutines, want 0", small, fresh)
	}
}

// TestBlockEngineRunAllocs: installing a VP's program on a (recycled)
// coroutine allocates nothing, so a warm run of a program that itself
// allocates nothing — Syncs only, across local and routed labels — costs
// the engine fewer than v allocations in all.  A closure per VP per run
// alone would be v.
func TestBlockEngineRunAllocs(t *testing.T) {
	const v = 1024
	prog := func(vp *VP[int]) {
		for l := 0; l < vp.LogV(); l++ {
			vp.Sync(l)
		}
	}
	for _, eng := range []BlockEngine{{}, {Workers: 1}, {Workers: 4}} {
		opts := Options{Engine: eng}
		if _, err := RunOpt(v, prog, opts); err != nil { // warm the coroutine cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunOpt(v, prog, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers=%d: %.0f allocations per run", eng.Workers, allocs)
		if allocs >= v {
			t.Errorf("workers=%d: %.0f allocations per warm run of %d VPs, want < %d", eng.Workers, allocs, v, v)
		}
	}
}

// TestBlockEngineStepAllocs: a step-form program runs on no coroutine.
// With the coroutine cache emptied for the test, warm runs of one that
// allocates nothing itself — local and routed labels, as in
// TestBlockEngineRunAllocs — leave the cache empty (a run that took
// coroutines would create v and put them back) and cost the engine far
// fewer than v allocations, none of them per VP.
func TestBlockEngineStepAllocs(t *testing.T) {
	const v = 1024
	step := func(vp *VP[int]) (int, bool) {
		s := vp.Superstep()
		return s, s < vp.LogV()
	}
	vpCoros.mu.Lock()
	kept := vpCoros.free
	vpCoros.free = nil
	vpCoros.mu.Unlock()
	t.Cleanup(func() {
		vpCoros.mu.Lock()
		vpCoros.free, kept = kept, vpCoros.free
		vpCoros.mu.Unlock()
		stopAll(kept)
	})
	for _, eng := range []BlockEngine{{}, {Workers: 1}, {Workers: 4}} {
		opts := Options{Engine: eng}
		if _, err := RunSteps(v, step, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunSteps(v, step, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers=%d: %.0f allocations per run", eng.Workers, allocs)
		if allocs >= v/4 {
			t.Errorf("workers=%d: %.0f allocations per warm step-form run of %d VPs, want < %d", eng.Workers, allocs, v, v/4)
		}
		vpCoros.mu.Lock()
		n := len(vpCoros.free)
		vpCoros.mu.Unlock()
		if n != 0 {
			t.Errorf("workers=%d: step-form runs left %d coroutines in an empty cache", eng.Workers, n)
		}
	}
}

// TestBlockEngineWorkerCount pins the worker-count resolution rules:
// power-of-two rounding, clipping to v, and the automatic default.
func TestBlockEngineWorkerCount(t *testing.T) {
	cases := []struct {
		workers, v, want int
	}{
		{1, 8, 1},
		{2, 8, 2},
		{3, 8, 2},
		{7, 8, 4},
		{8, 8, 8},
		{64, 8, 8},
		{5, 2, 2},
		{16, 1, 1},
	}
	for _, c := range cases {
		if got := (BlockEngine{Workers: c.workers}).workerCount(c.v); got != c.want {
			t.Errorf("workerCount(workers=%d, v=%d) = %d, want %d", c.workers, c.v, got, c.want)
		}
	}
	if got := (BlockEngine{}).workerCount(1 << 20); got < 1 || got&(got-1) != 0 {
		t.Errorf("automatic workerCount = %d, want a positive power of two", got)
	}
}

// TestWorkerSlotsOwnCacheLines: no cache line holds the recorded-pair
// lists of two BlockEngine workers, nor a worker slot from ownLines and
// any other object, so no two workers' per-message writes share a line.
func TestWorkerSlotsOwnCacheLines(t *testing.T) {
	list, padded := unsafe.Sizeof(PairList{}), unsafe.Sizeof(paddedPairList{})
	if padded < list+cacheLine {
		t.Fatalf("paddedPairList is %d bytes, want at least the list's %d plus a %d-byte line", padded, list, cacheLine)
	}
	line := func(p unsafe.Pointer, off uintptr) uintptr { return (uintptr(p) + off) / cacheLine }
	for w := 1; w <= 256; w *= 2 {
		shards := ownLines[paddedPairList](w)
		for i := 1; i < w; i++ {
			prev, cur := unsafe.Pointer(&shards[i-1]), unsafe.Pointer(&shards[i])
			if line(prev, list-1) >= line(cur, 0) {
				t.Fatalf("W=%d: the lists of shards %d and %d share a line", w, i-1, i)
			}
		}
	}
	for _, n := range []int{1, 2, 7, 64} {
		s := ownLines[int32](n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("ownLines(%d): len %d cap %d", n, len(s), cap(s))
		}
		// The line before and the line after the slots lie in the same
		// allocation, so reading them stays in bounds and finds zeros.
		full := unsafe.Slice((*int32)(unsafe.Add(unsafe.Pointer(&s[0]), -cacheLine)), n+2*cacheLine/4)
		if full[0] != 0 || full[len(full)-1] != 0 {
			t.Fatalf("ownLines(%d): padding is not zero", n)
		}
	}
}
