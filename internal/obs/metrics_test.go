package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests", L("endpoint", "a"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("reqs_total", "requests", L("endpoint", "a")); again != c {
		t.Fatal("same name+labels returned a different counter")
	}
	g := reg.Gauge("depth", "queue depth")
	g.Add(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketsCumulativeAndNumericBounds(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", "latency", []float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 2, 5, 100} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	f := snap.Family("lat_ms")
	if f == nil || len(f.Series) != 1 {
		t.Fatalf("missing lat_ms family: %+v", snap)
	}
	s := f.Series[0]
	if s.Count != 5 || s.Sum != 108.5 {
		t.Fatalf("count=%d sum=%v, want 5 and 108.5", s.Count, s.Sum)
	}
	wantCum := []int64{2, 3, 4, 5} // le=1:{0.5,1}, le=4:+{2}, le=16:+{5}, +Inf:+{100}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Cumulative != wantCum[i] {
			t.Errorf("bucket %d (le=%s) cumulative = %d, want %d", i, b.LE, b.Cumulative, wantCum[i])
		}
		if i > 0 && !(s.Buckets[i-1].Bound < b.Bound) {
			t.Errorf("numeric bounds not strictly ascending at %d", i)
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].Bound, 1) || s.Buckets[len(s.Buckets)-1].LE != "+Inf" {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "cache hits").Add(7)
	reg.GaugeFunc("entries", "live entries", func() float64 { return 12 })
	h := reg.Histogram("lat_ms", "latency", []float64{1, 4}, L("algorithm", "fft"))
	h.Observe(0.5)
	h.Observe(9)
	// A label value exercising every escape.
	reg.Counter("odd_total", "odd labels", L("name", "a\\b\"c\nd")).Inc()

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE hits_total counter",
		"hits_total 7",
		"entries 12",
		`lat_ms_bucket{algorithm="fft",le="1"} 1`,
		`lat_ms_bucket{algorithm="fft",le="4"} 1`,
		`lat_ms_bucket{algorithm="fft",le="+Inf"} 2`,
		`lat_ms_sum{algorithm="fft"} 9.5`,
		`lat_ms_count{algorithm="fft"} 2`,
		`odd_total{name="a\\b\"c\nd"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestPrometheusCumulativeMonotonicity parses rendered text and asserts
// every histogram's buckets are non-decreasing and end at _count.
func TestPrometheusCumulativeMonotonicity(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x_ms", "", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 10))
	}
	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var cums []int64
	var count int64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(fields[0], "x_ms_bucket") {
			cums = append(cums, v)
		}
		if fields[0] == "x_ms_count" {
			count = v
		}
	}
	if len(cums) != 5 {
		t.Fatalf("parsed %d buckets, want 5", len(cums))
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("cumulative buckets decrease at %d: %v", i, cums)
		}
	}
	if cums[len(cums)-1] != count || count != 100 {
		t.Fatalf("+Inf bucket %d != count %d (want 100)", cums[len(cums)-1], count)
	}
}

func TestSnapshotJSONAgreesWithText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "", L("k", "v1")).Add(3)
	reg.Counter("a_total", "", L("k", "v2")).Add(5)
	reg.Histogram("h_ms", "", []float64{10}).Observe(4)

	snap := reg.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, f := range back.Families {
		if f.Type != TypeCounter {
			continue
		}
		for _, s := range f.Series {
			line := f.Name + formatLabels(s.Labels) + " " + formatValue(s.Value)
			if !strings.Contains(text, line) {
				t.Errorf("JSON counter %s not present in text output:\n%s", line, text)
			}
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Counter("c_total", "", L("g", strconv.Itoa(g%2))).Inc()
				reg.Histogram("h_ms", "", []float64{1, 8, 64}).Observe(float64(i))
				if i%50 == 0 {
					reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	f := snap.Family("c_total")
	var total float64
	for _, s := range f.Series {
		total += s.Value
	}
	if total != 8*500 {
		t.Fatalf("counter total = %v, want %d", total, 8*500)
	}
	if h := snap.Family("h_ms"); h.Series[0].Count != 8*500 {
		t.Fatalf("histogram count = %d, want %d", h.Series[0].Count, 8*500)
	}
}
