// Command mpqlint runs the repository's static-analysis suite
// (internal/analysis) over Go packages: the invariant analyzers
// arenaescape, ctxflow, lockorder and tagswitch, plus a stdlib-only
// port of the upstream nilness pass.
//
// Usage:
//
//	go run ./cmd/mpqlint ./...
//	go run ./cmd/mpqlint -list
//	go run ./cmd/mpqlint -json ./internal/server
//
// Findings print as file:line:col: message (analyzer), one per line —
// the format CI's problem matcher annotates — and a nonzero exit
// status reports that findings exist. Deliberate exceptions are
// suppressed in source with `//lint:allow <analyzer> <reason>`; see
// docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mpq/internal/analysis"
	"mpq/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mpqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as JSON Lines instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpqlint [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "mpqlint: %v\n", err)
		return 2
	}

	enc := json.NewEncoder(stdout)
	total := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunSuite(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "mpqlint: %v\n", err)
			return 2
		}
		for _, f := range findings {
			total++
			if *jsonOut {
				enc.Encode(f)
			} else {
				fmt.Fprintln(stdout, f)
			}
		}
	}
	if total > 0 {
		fmt.Fprintf(stderr, "mpqlint: %d finding(s)\n", total)
		return 1
	}
	return 0
}
