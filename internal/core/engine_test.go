package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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
	}
	engines := []Engine{GoroutineEngine{}, BlockEngine{}, BlockEngine{Workers: 2}}
	for _, sc := range scenarios {
		for _, eng := range engines {
			name := fmt.Sprintf("%s/%s-%v", sc.name, eng.Name(), eng)
			_, err := RunOpt(sc.v, sc.prog, Options{Engine: eng})
			if err == nil {
				t.Errorf("%s: want error, got nil", name)
				continue
			}
			if sc.want != "" && !strings.Contains(err.Error(), sc.want) {
				t.Errorf("%s: error %q does not contain %q", name, err, sc.want)
			}
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

// TestCoroCacheDecay checks the cache never exceeds its cap for long:
// after an oversized run drains, repeated small runs shrink it back.
func TestCoroCacheDecay(t *testing.T) {
	grow := func(n int) {
		vpCoros.mu.Lock()
		for len(vpCoros.free) < n {
			vpCoros.free = append(vpCoros.free, newVPCoro())
		}
		vpCoros.mu.Unlock()
	}
	grow(maxPooledVPCoros + 1000)
	for i := 0; i < 64; i++ {
		vpCoros.put(nil) // each call decays an eighth of the excess
	}
	vpCoros.mu.Lock()
	n := len(vpCoros.free)
	vpCoros.mu.Unlock()
	if n > maxPooledVPCoros {
		t.Errorf("cache holds %d coroutines after decay, cap is %d", n, maxPooledVPCoros)
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
