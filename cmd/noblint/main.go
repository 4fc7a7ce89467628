// Command noblint runs the repository's custom static-analysis suite
// (internal/lint) over Go package patterns and exits non-zero on any
// diagnostic.  It is the lint gate CI runs over ./....
//
// Usage:
//
//	noblint [-c analyzer1,analyzer2] [-list] [patterns...]
//
// With no patterns it analyzes ./... relative to the current directory.
// -c restricts the run to a comma-separated subset of analyzers; -list
// prints the suite and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"netoblivious/internal/lint"
)

func main() {
	var (
		only = flag.String("c", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a, err := lint.AnalyzerByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "noblint:", err)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noblint:", err)
		os.Exit(2)
	}

	diags := lint.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "noblint: %d issue(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
