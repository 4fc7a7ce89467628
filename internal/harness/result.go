// Package harness defines the reproduction experiments: one per
// table/figure-equivalent claim of the paper (the paper is theoretical, so
// its "evaluation" is the set of theorems of Sections 3–5; each experiment
// regenerates one claim as a measured result set).
//
// The package is a declarative pipeline with three separated layers:
//
//   - measurement: each registered Experiment maps a Config to typed
//     Result values — parameter grid points with measured metrics plus
//     machine-checkable pass/fail Checks — pulling the shared fold
//     summaries of specification runs from the per-run TraceStore
//     instead of re-executing them;
//   - execution: RunSuite drives independent experiments through a
//     bounded worker pool with a determinism guarantee (parallel and
//     sequential runs emit byte-identical rendered output);
//   - presentation: sinks in sink.go render Records as aligned text,
//     GitHub markdown, a schema-tagged JSON document, or CSV.
//
// The registry is consumed by cmd/nobl and by the benchmark suite in
// bench_test.go; EXPERIMENTS.md records the rendered outputs.
package harness

import (
	"fmt"
	"math"
)

// ValueKind discriminates the typed cell values of a Result row.
type ValueKind uint8

const (
	// KindString is a text cell (algorithm names, machine names, shapes).
	KindString ValueKind = iota
	// KindInt is an integer cell (sizes, processor counts, counters).
	KindInt
	// KindFloat is a measured or predicted quantity.
	KindFloat
)

// Value is one typed cell of a Result row.  Keeping cells typed (instead
// of pre-formatted strings) is what lets the JSON/CSV sinks emit faithful
// data while the text/markdown sinks control presentation.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
}

// String wraps a text cell.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int wraps an integer cell.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float wraps a float cell.
func Float(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// Format renders the cell for the text, markdown and CSV sinks.
func (v Value) Format() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt:
		return fmt.Sprint(v.Int)
	default:
		return formatFloat(v.Float)
	}
}

// formatFloat renders a measured quantity at a precision that keeps the
// tables readable across the tens-of-magnitudes range the metrics span:
// scientific ≥ 1e6, integral ≥ 100, two decimals ≥ 1, four below.
func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000000:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Check is one machine-checkable claim of an experiment: the quantitative
// assertion a paper theorem makes about the measured grid, reduced to a
// pass/fail with a human-readable detail.  Failed checks surface in every
// sink and drive the non-zero exit status of `nobl run`.
type Check struct {
	// Name identifies the claim ("H tracks Theorem 4.2", ...).
	Name string `json:"name"`
	// Pass reports whether the measured data satisfied the claim.
	Pass bool `json:"pass"`
	// Detail quantifies the outcome (worst ratio observed, bound used).
	Detail string `json:"detail,omitempty"`
}

// Result is one typed result set of an experiment: a parameter grid with
// measured metrics, commentary notes, and the checks evaluated on it.
type Result struct {
	// ID is the experiment identifier (E1..E16, F1).
	ID string `json:"id"`
	// Title is a one-line description.
	Title string `json:"title"`
	// PaperRef points to the theorem/section reproduced.
	PaperRef string `json:"paper_ref"`
	// Columns are the header names of the grid.
	Columns []string `json:"columns"`
	// Rows hold the typed cells, one slice per grid point.
	Rows [][]Value `json:"rows"`
	// Notes carry free-form commentary (caveats, interpretation).
	Notes []string `json:"notes,omitempty"`
	// Checks are the pass/fail claims evaluated on the grid.
	Checks []Check `json:"checks,omitempty"`
}

// AddRow appends a row, converting Go values to typed cells: string,
// int/int64 and float64 map to their kinds; anything else is formatted
// as text.
func (r *Result) AddRow(cells ...any) {
	row := make([]Value, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = String(v)
		case int:
			row[i] = Int(int64(v))
		case int64:
			row[i] = Int(v)
		case float64:
			row[i] = Float(v)
		default:
			row[i] = String(fmt.Sprint(v))
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddCheck records a pass/fail claim with a formatted detail.
func (r *Result) AddCheck(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// FormattedRows renders every cell through Value.Format, the shared
// presentation of the text, markdown and CSV sinks.
func (r *Result) FormattedRows() [][]string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.Format()
		}
		rows[i] = cells
	}
	return rows
}
