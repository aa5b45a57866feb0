// Command v6lint runs the repo's custom determinism/lock/fingerprint
// analyzer suite (internal/lint) over Go packages.
//
// Usage:
//
//	v6lint [-only a,b] [packages...]
//
// Packages default to ./... relative to the current directory. The
// tool exits 0 when no findings remain, 1 otherwise, printing one
// finding per line:
//
//	file:line:col: message [analyzer]
//
// The five analyzers and their //v6lint:* escape hatches are
// documented in internal/lint and in DESIGN.md's "Determinism
// invariants" section.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"v6web/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "v6lint:", err)
		os.Exit(2)
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "v6lint:", err)
		os.Exit(2)
	}
	n, err := lint.Run(dir, patterns, analyzers, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "v6lint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "v6lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers(), nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.Analyzers() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
