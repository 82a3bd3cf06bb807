// Command mobilevet runs the mobilecongest lint suite: six analyzers that
// machine-check the simulator's correctness invariants (seed-determinism,
// hot-path allocation freedom, map-iteration folds, the port-native
// boundary, the round-view ownership contract, and shard-worker write
// isolation).
//
// Standalone:
//
//	mobilevet ./...              # lint packages under the current module
//	mobilevet -detrand=false ./internal/rewind
//	mobilevet -json ./...        # machine-readable findings on stdout
//
// As a go vet tool (includes _test.go files in the load, though the
// analyzers themselves skip test code):
//
//	go vet -vettool=$(command -v mobilevet) ./...
//
// Cross-package facts (hotalloc's hotpath marks) flow through per-package
// fact files: in-process runs propagate them in dependency order straight
// from the go list -deps load; under go vet they serialize into the vetx
// files the go command schedules and caches.
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
	"io"
	"os"
	"path/filepath"
	"strings"

	"mobilecongest/internal/lint"
	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// version is the tool identity `go vet -vettool` caches against; bump when
// analyzer behavior changes so stale vet caches invalidate.
const version = "v8"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The go command probes vet tools before use: `-V=full` asks for a
	// cache-keying identity line.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("mobilevet version %s\n", version)
		return 0
	}

	suite := lint.Suite()
	fs := flag.NewFlagSet("mobilevet", flag.ContinueOnError)
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		doc, _, _ := strings.Cut(a.Doc, ";")
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+doc)
	}
	jsonFlags := fs.Bool("flags", false, "print the tool's flags as JSON and exit (go vet protocol)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/suppressed) on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mobilevet [flags] <packages>\n       go vet -vettool=$(command -v mobilevet) <packages>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *jsonFlags {
		return printFlags(fs)
	}

	var active []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], active)
	}
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}
	return standalone(rest, active, *jsonOut)
}

// printFlags implements the `-flags` half of the go vet tool protocol: a
// JSON description of the flags the go command may forward.
func printFlags(fs *flag.FlagSet) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "flags" {
			return
		}
		out = append(out, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	os.Stdout.Write(data)
	fmt.Println()
	return 0
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
func standalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
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
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
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

// vetConfig is the configuration file the go command hands a vet tool for
// one package — the unitchecker protocol.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// modulePrefix scopes fact computation under go vet: only packages of this
// module can carry mobilevet facts, so dependency (VetxOnly) runs over
// anything else — the stdlib — write an empty fact file and return.
const modulePrefix = "mobilecongest"

// inModule reports whether an import path belongs to this module.
func inModule(path string) bool {
	base := lintutil.BasePkgPath(path)
	return base == modulePrefix || strings.HasPrefix(base, modulePrefix+"/")
}

// unitcheck lints the single package described by a go vet .cfg file,
// reading dependency facts from the vetx files the go command scheduled and
// writing this package's facts to VetxOutput.
func unitcheck(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mobilevet: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	factful := false
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			factful = true
		}
	}
	if cfg.VetxOnly && (!factful || !inModule(cfg.ImportPath)) {
		// Nothing to compute: facts live only on module packages. The go
		// command still expects the vetx file to exist for caching.
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "mobilevet:", err)
			return 2
		}
		return 0
	}

	// Decode dependency facts. Only module packages ever export any, so
	// skip the stdlib's empty files.
	registry := analysis.FactRegistry(analyzers)
	store := analysis.NewFactStore()
	for path, file := range cfg.PackageVetx {
		if !inModule(path) {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobilevet:", err)
			return 2
		}
		set, err := analysis.DecodeFactSet(raw, registry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobilevet: %s: %v\n", file, err)
			return 2
		}
		store.Set(path, set)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	goVersion := cfg.GoVersion
	if v, ok := strings.CutPrefix(goVersion, "go"); ok {
		// types.Config wants the "go1.N" form without patch suffixes beyond
		// what it understands; pass through the two-part prefix.
		parts := strings.SplitN(v, ".", 3)
		if len(parts) >= 2 {
			goVersion = "go" + parts[0] + "." + parts[1]
		}
	}
	pkg, err := analysis.CheckFiles(cfg.ImportPath, cfg.GoFiles, goVersion, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	pkg.FactsOnly = cfg.VetxOnly
	findings, err := analysis.RunPackage(pkg, analyzers, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilevet:", err)
		return 2
	}
	if cfg.VetxOutput != "" {
		var encoded []byte
		if set := analysis.PackageFacts(store, pkg.Types.Path()); set != nil {
			if encoded, err = set.Encode(); err != nil {
				fmt.Fprintln(os.Stderr, "mobilevet:", err)
				return 2
			}
		}
		if err := os.WriteFile(cfg.VetxOutput, encoded, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "mobilevet:", err)
			return 2
		}
	}
	active := analysis.Active(findings)
	for _, f := range active {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Posn, f.Message, f.Analyzer)
	}
	if len(active) > 0 {
		return 1
	}
	return 0
}
