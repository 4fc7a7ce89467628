package eval

import "netoblivious/internal/core"

// Point is the complete metric set of one (p, σ) grid point of a folded
// trace: the Result-friendly unit of measurement the experiment pipeline
// records.  Every field is an exact function of the trace's FoldSummary,
// so a Point is reproducible bit-for-bit from a stored trace file.
type Point struct {
	// P is the evaluation-machine processor count (a power of two,
	// 1 < P <= v).
	P int `json:"p"`
	// Sigma is the latency/synchronization cost σ of M(p, σ).
	Sigma float64 `json:"sigma"`
	// H is the communication complexity H(n, p, σ) (Equation 1).
	H float64 `json:"h"`
	// MessageLoad is the σ-free part of H: Σ_{i<log p} F_i(n, p).
	MessageLoad int64 `json:"message_load"`
	// Supersteps counts the supersteps with communication at this fold.
	Supersteps int64 `json:"supersteps"`
	// Alpha is the measured wiseness (Definition 3.2).
	Alpha float64 `json:"alpha"`
	// Gamma is the measured fullness (Definition 5.2).
	Gamma float64 `json:"gamma"`
}

// MeasureSummary computes the full metric set of the summarized
// algorithm folded on M(p, σ): the run's one summary, then any number of
// (p, σ) grid points in O(log²v) each.  It shares the
// Fold/Wiseness/Fullness panic contracts: p must be a power of two with
// 1 < p <= v.
func MeasureSummary(fs *core.FoldSummary, p int, sigma float64) Point {
	f := Fold(fs, p)
	return Point{
		P:           p,
		Sigma:       sigma,
		H:           f.H(sigma),
		MessageLoad: f.MessageLoad(),
		Supersteps:  f.Supersteps(),
		Alpha:       Wiseness(fs, p),
		Gamma:       Fullness(fs, p),
	}
}
