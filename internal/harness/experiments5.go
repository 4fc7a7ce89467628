package harness

import (
	"netoblivious/internal/cachesim"
	"netoblivious/internal/fft"
)

func init() {
	register(Experiment{
		ID:       "E16",
		Title:    "cache-oblivious connection: sequential simulation on IC(M,B)",
		PaperRef: "Section 6 conjecture (via Pietracaprina et al. 2006)",
		Run:      runE16,
	})
}

func runE16(cfg Config) ([]*Result, error) {
	rng := seededRng()
	n := 1 << 10
	if cfg.Quick {
		n = 1 << 8
	}
	x := randComplex(rng, n)
	// These runs need recorded message pairs and run dummy-free, so they
	// are E16's own rather than trace-store entries.
	rec, err := fft.Transform(x, fft.Options{Wise: false, Record: true, Engine: cfg.engine()})
	if err != nil {
		return nil, err
	}
	it, err := fft.TransformIterative(x, fft.Options{Wise: false, Record: true, Engine: cfg.engine()})
	if err != nil {
		return nil, err
	}
	const ctxWords, b = 4, 8
	sizes := []int{1 << 7, 1 << 9, 1 << 11, 1 << 13}
	csRec, err := cachesim.MissCurve(rec.Trace.Source(), ctxWords, b, sizes)
	if err != nil {
		return nil, err
	}
	csIt, err := cachesim.MissCurve(it.Trace.Source(), ctxWords, b, sizes)
	if err != nil {
		return nil, err
	}
	curveRec, curveIt := csRec.Misses(), csIt.Misses()
	res := &Result{
		ID: "E16", Title: "IC(M,B) misses of the one-processor simulation of the two FFTs",
		PaperRef: "Section 6",
		Columns:  []string{"n", "M (words)", "B", "misses: recursive", "miss rate", "misses: iterative", "miss rate", "compulsory"},
	}
	compulsory := csRec.Words() / int64(b)
	for i, m := range sizes {
		res.AddRow(n, m, b,
			curveRec[i], float64(curveRec[i])/float64(csRec.Accesses()),
			curveIt[i], float64(curveIt[i])/float64(csIt.Accesses()),
			compulsory)
	}
	res.Notes = append(res.Notes,
		"the sequential (folded-to-one-processor) execution turns superstep labels into address locality; both FFTs drop to compulsory misses once the footprint fits in M",
		"honest finding: per-access miss rates of the two FFTs are comparable at these n, and the recursive variant's absolute misses are higher because the natural-order substitution (three transposes per level, DESIGN.md) triples its traffic — the Section 6 conjecture concerns asymptotic I/O complexity, which needs larger n and the single-transpose formulation to separate; the simulator makes that investigation runnable")
	last := len(sizes) - 1
	res.AddCheck("both FFTs drop to compulsory misses once the footprint fits in M",
		curveRec[last] == compulsory && curveIt[last] == compulsory,
		"misses at M=%d: recursive %d, iterative %d, compulsory %d", sizes[last], curveRec[last], curveIt[last], compulsory)
	return []*Result{res}, nil
}
