package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"netoblivious/alg"
)

// TestMain lets the test binary stand in for the bench binary when a test
// spawns session children.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// warmSchedule is what one serve-warm pass sends: the keys and their
// arrival offsets.
func warmSchedule(seed int64) ([]string, []time.Duration) {
	stream := newZipfStream(warmKeys(alg.All()), rngFor(seed, "serve-warm/draws", 0))
	offsets := poissonOffsets(rngFor(seed, "serve-warm/arrivals", 0), warmRate, warmStretch)
	keys := make([]string, len(offsets))
	for i := range keys {
		keys[i] = stream.next().Key()
	}
	return keys, offsets
}

func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	k1, o1 := warmSchedule(7)
	k2, o2 := warmSchedule(7)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("the same seed produced different requests or arrival offsets")
	}
	k3, o3 := warmSchedule(8)
	if reflect.DeepEqual(k1, k3) || reflect.DeepEqual(o1, o3) {
		t.Fatal("different seeds produced the same requests or arrival offsets")
	}
	cold := coldSet(alg.All())
	a, b := shuffled(cold, rngFor(7, "serve-cold", 0)), shuffled(cold, rngFor(7, "serve-cold", 0))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different cold-set orders")
	}
	if reflect.DeepEqual(a, shuffled(cold, rngFor(8, "serve-cold", 0))) {
		t.Fatal("different seeds produced the same cold-set order")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
	}{
		{20, 50, 10},
		{99, 50, 50},
		{100, 90, 90},
		{999, 90, 900},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		p, v, n, ok := tail(ramp(tc.n))
		if !ok || p != tc.p || v != tc.value || n != tc.n {
			t.Errorf("tail(%d samples) = p%g %g (n=%d, ok=%v), want p%g %g", tc.n, p, v, n, ok, tc.p, tc.value)
		}
	}
	if _, _, n, ok := tail(ramp(19)); ok || n != 19 {
		t.Errorf("19 samples: got ok=%v n=%d, want no tail and n=19", ok, n)
	}
	// Failed operations enter as +Inf and push the median up.
	if m := median([]float64{1, 2, 3, math.Inf(1), math.Inf(1)}); m != 3 {
		t.Errorf("median with two failures = %g, want 3", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestHistPercentileInterpolates(t *testing.T) {
	bounds := []float64{1, 4, 16}
	cum := []int64{50, 90, 100}
	if got := histPercentile(bounds, cum, 100, 50); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := histPercentile(bounds, cum, 100, 70); got != 2.5 {
		t.Errorf("p70 = %g, want 2.5", got)
	}
	if got := histPercentile(bounds, cum, 110, 99); got != 16 {
		t.Errorf("p99 beyond the last bound = %g, want 16", got)
	}
}

// TestColdSetFollowsRegistry registers a fixture algorithm: it must join
// the cold set in every job kind, and the named exclusions must be the
// only registry keys left out.
func TestColdSetFollowsRegistry(t *testing.T) {
	fixture := alg.Algorithm{
		Name:  "bench-fixture",
		Doc:   "fixture for the cold-set test",
		Sizes: []int{2, 4},
		RunFn: func(ctx context.Context, spec alg.Spec, n int) (alg.Result, error) { return alg.Result{}, nil },
	}
	if err := alg.Register(fixture); err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for _, req := range coldSet(alg.All()) {
		in[req.Key()] = true
	}
	missing := map[string]bool{}
	for _, a := range alg.All() {
		for _, n := range a.DefaultSizes() {
			for _, k := range jobKinds {
				key := string(k) + "/" + a.Name + "/n=" + strconv.Itoa(n)
				if !in[key] {
					missing[a.Name+"/"+strconv.Itoa(n)] = true
				}
			}
		}
	}
	if !reflect.DeepEqual(missing, excluded) {
		t.Fatalf("keys left out of the cold set: %v, want exactly %v", missing, excluded)
	}
	for _, n := range fixture.Sizes {
		for _, k := range jobKinds {
			if key := string(k) + "/bench-fixture/n=" + strconv.Itoa(n); !in[key] {
				t.Errorf("cold set lacks %s", key)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.02, 1.00}, true, "within bound"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, true, "worse"},
		{"faster", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, true, "better"},
		{"higher is better", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, false, "better"},
		{"noisy", []float64{0.7, 1.3, 0.9, 1.2, 1.0}, true, "unresolved"},
		{"noisy but apart", []float64{1.3, 2.0, 1.5, 1.9, 1.6}, true, "worse"},
	} {
		if got := verdict(base, tc.b, tc.lower, 0.05); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
}

// TestSmoke runs one traced pass of every workload in a session child and
// checks that nothing failed, every answer matched its golden hash, and
// the trace was written.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(dir, w.name+".json")
			cr, err := spawn(context.Background(), w, 1, 0, 0, true, path)
			if err != nil {
				t.Fatal(err)
			}
			if cr.res.Failed != 0 || cr.res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", cr.res.Failed, cr.res.Attempted, cr.res.Errors)
			}
			if len(cr.res.Passes) != 1 || cr.setup <= 0 || cr.rssMB <= 0 {
				t.Fatalf("passes %v, set-up %gs, rss %g MiB", cr.res.Passes, cr.setup, cr.rssMB)
			}
			if cr.res.Layers["core.supersteps"] <= 0 {
				t.Errorf("no engine supersteps traced: %v", cr.res.Layers)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("no Chrome trace written: %v", err)
			}
		})
	}
}
