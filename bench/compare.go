package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

func loadBounds() ([]bound, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf.EndToEnd, nil
}

var errNoRecords = errors.New("no untraced results")

// readRecords reads the untraced results of a -out file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %w", path, errNoRecords)
	}
	return out, nil
}

// verdict judges candidate runs b against baseline runs a for a metric
// whose regression bound is bnd (a share of a's median).  Where either
// side's spread is wider than the bound the medians say nothing, and the
// verdict is unresolved unless every run of one side beats every run of
// the other.
func verdict(a, b []float64, lowerIsBetter bool, bnd float64) string {
	worse := func(x, y float64) bool { // x is worse than y
		if lowerIsBetter {
			return x > y
		}
		return x < y
	}
	if spread(a) > bnd || spread(b) > bnd {
		sa, sb := sortedCopy(a), sortedCopy(b)
		bestA, worstA := sa[0], sa[len(sa)-1]
		bestB, worstB := sb[0], sb[len(sb)-1]
		if !lowerIsBetter {
			bestA, worstA, bestB, worstB = worstA, bestA, worstB, bestB
		}
		switch {
		case worse(bestB, worstA):
			return "worse"
		case worse(bestA, worstB):
			return "better"
		}
		return "unresolved"
	}
	change := relChange(a, b)
	if !lowerIsBetter {
		change = -change
	}
	switch {
	case change > bnd:
		return "worse"
	case change < -bnd:
		return "better"
	}
	return "within bound"
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict on B against A.
func compareFiles(w io.Writer, pathA, pathB string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range ra {
		if _, ok := rb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-12s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] (runs)", "B median [q1 q3] (runs)", "change", "bound", "verdict")
	for _, name := range names {
		for _, bd := range bounds {
			a, b := metricValues(ra[name], bd.Name), metricValues(rb[name], bd.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-11s %-12s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", name, bd.Name,
				describe(a), describe(b), 100*relChange(a, b), 100*bd.Bound, verdict(a, b, bd.Better == "lower", bd.Bound))
		}
	}
	return nil
}

// relChange is the change of b's median from a's, as a share of a's.
func relChange(a, b []float64) float64 {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	return (mb - ma) / ma
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] (%d)", q2, q1, q3, len(xs))
}
