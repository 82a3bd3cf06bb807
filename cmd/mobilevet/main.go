// Command mobilevet runs the mobilecongest lint suite: six analyzers that
// machine-check the simulator's correctness invariants (seed-determinism,
// hot-path allocation freedom, map-iteration folds, the port-native
// boundary, the round-view ownership contract, and shard-worker write
// isolation).
//
// Usage:
//
//	mobilevet ./...              # lint packages under the current module
//	mobilevet -json ./...        # machine-readable findings on stdout
//
// Every run applies the whole suite. Cross-package facts (hotalloc's
// hotpath marks) propagate in dependency order straight from the
// go list -deps load.
//
// Findings suppress with an annotated, reasoned directive on or above the
// offending line:
//
//	//lint:ignore portnative abort path runs once; clarity over zero-alloc
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobilecongest/internal/lint"
	"mobilecongest/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mobilevet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/suppressed) on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mobilevet [-json] <packages>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	return standalone(fs.Args(), *jsonOut)
}

// jsonFinding is the machine-readable finding shape -json emits: enough for
// CI to place inline annotations without re-parsing the text form.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// standalone loads patterns through the go list driver and lints them. The
// exit status reflects only active (unsuppressed) findings; -json output
// additionally carries the suppressed ones so tooling can audit directives.
func standalone(patterns []string, jsonOut bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	findings, err := analysis.RunAnalyzers(pkgs, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	active := analysis.Active(findings)
	if jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:       rel(f.Posn.Filename),
				Line:       f.Posn.Line,
				Col:        f.Posn.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mobilevet:", err)
			return 2
		}
	} else {
		for _, f := range active {
			f.Posn.Filename = rel(f.Posn.Filename)
			fmt.Println(f)
		}
	}
	if len(active) > 0 {
		return 1
	}
	return 0
}
