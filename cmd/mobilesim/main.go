// Command mobilesim runs the reproduction experiment suite — one experiment
// per theorem of "Distributed CONGEST Algorithms against Mobile Adversaries"
// (Fischer-Parter, PODC 2023) — and ad-hoc parameter sweeps over the
// simulator's scenario grid.
//
// Experiment mode (default): each experiment prints a table whose shape is
// checked against the theorem's claim.
//
//	mobilesim                 # run every experiment
//	mobilesim -list           # list experiments, engines, topologies, adversaries
//	mobilesim -run T1,F3      # run a subset
//	mobilesim -seed 7         # change the master seed
//
// Experiments run on the default engine: their tables do not depend on the
// engine, because the experiments read no clock and every engine produces
// byte-identical results for the same seed.
//
// Sweep mode: -sweep fills a PlanSpec (the JSON form cmd/mobilesimd
// accepts) from the sweep flags — including the protocol registry names via
// -proto and the engines via -engine — and runs the Plan it lowers to,
// so the CLI and the server share one lowering and one set of input checks:
// a bad value (an unknown name, n < 1, a negative k, f, bandwidth, reps,
// maxrounds or workers) exits 2 with the spec's message. The plan fans the cells out across -workers
// workers with deterministic per-cell seeds (each worker reusing one run
// context across its cells), and streams one JSON record per line on stdout
// *as cells complete* (run -workers 1 for in-order output). The engines are
// "step" (the default; every node resumed on one goroutine) and "shard"
// (nodes stepped over contiguous CSR node shards on a worker pool — the
// engine for large n on multi-core hosts); the plan's workers share
// GOMAXPROCS among their shard counts. Any other -engine name, "goroutine"
// included, exits 2 with the registry's unknown-engine error.
// -summary replaces the per-cell stream with post-sweep aggregates: one JSON
// line per cell group, with mean/stddev/min/max over the -reps repetitions.
//
// -bandwidth adds an enforced per-edge-per-round bit-budget axis (0 =
// unlimited); cells whose protocol oversends fail with the deterministic
// congest bandwidth error in their record.
//
// -cache reuses a persistent result cache across invocations: every cell is
// deterministic in its (label, seed, engine, code version) address, so a
// repeated or overlapping sweep replays previously computed records from
// the cache directory's JSONL tier instead of recomputing them (the same
// cache directory cmd/mobilesimd serves from). The hit/miss tally lands on
// stderr after the sweep. Cells attached to a -trace observer always
// recompute — a replayed record has no rounds to trace.
//
//	mobilesim -sweep -topo clique,circulant -n 8,16,32 -adv none,flip -f 2
//	mobilesim -sweep -proto bfs,mstclique -topo clique -n 16,32 -reps 3
//	mobilesim -sweep -n 32 -bandwidth 0,64,256 | jq '{name, error}'
//	mobilesim -sweep -n 64 -engine step,shard -reps 5 -summary | jq .rounds.mean
//	mobilesim -sweep -n 64 -workers 1 | jq .rounds
//	mobilesim -sweep -n 4096 -reps 8 -cache ~/.cache/mobilesim  # 2nd run: all hits
//
// Trace mode: -trace out.jsonl streams every simulated round as one JSON
// line (delivered messages with base64 payloads, plus corrupted edges and a
// per-run summary line) while the runs execute. It composes with both modes:
// in experiment mode every simulation of the suite is traced; in sweep mode
// every grid cell is, labeled by its cell name.
//
//	mobilesim -run T1 -trace t1.jsonl
//	mobilesim -sweep -n 16 -adv flip -trace - | jq .corrupted
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	mc "mobilecongest"

	"mobilecongest/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args and writes to the given
// streams instead of touching the process globals.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobilesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and registries, then exit")
	only := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := fs.Int64("seed", 42, "master random seed (sweep: base seed)")
	engine := fs.String("engine", mc.EngineStep.Name(), "sweep: comma-separated execution engine names")
	sweep := fs.Bool("sweep", false, "run a parameter sweep instead of the experiment suite")
	topo := fs.String("topo", "clique", "sweep: comma-separated topology names")
	ns := fs.String("n", "16", "sweep: comma-separated node counts")
	ks := fs.String("k", "0", "sweep: comma-separated topology parameters (0 = family default)")
	proto := fs.String("proto", "", "sweep: comma-separated protocol registry names (empty = default floodmax workload)")
	adv := fs.String("adv", "none", "sweep: comma-separated adversary names")
	fstr := fs.String("f", "1", "sweep: comma-separated adversary strengths")
	bandwidth := fs.String("bandwidth", "", "sweep: comma-separated enforced bits/edge/round budgets (0 = unlimited; empty = no bandwidth axis)")
	reps := fs.Int("reps", 1, "sweep: repetitions per cell with distinct seeds")
	maxRounds := fs.Int("maxrounds", 0, "sweep: per-run round limit (0 = engine default)")
	workers := fs.Int("workers", 0, "sweep: concurrent cell runners (0 = GOMAXPROCS; 1 streams in grid order)")
	summary := fs.Bool("summary", false, "sweep: emit per-cell aggregates over reps instead of per-rep records")
	cacheDir := fs.String("cache", "", "sweep: reuse a persistent result cache at this directory (hit tally on stderr)")
	tracePath := fs.String("trace", "", "stream per-round traffic as JSONL to this file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Reject cross-mode flag mixes instead of silently ignoring them: -run
	// belongs to experiment mode, the axis flags to sweep mode (-trace works
	// in both). -list overrides both modes, so any combination with it just
	// lists.
	if !*list {
		sweepOnly := map[string]bool{"topo": true, "n": true, "k": true, "proto": true, "adv": true, "f": true, "bandwidth": true, "reps": true, "maxrounds": true, "workers": true, "summary": true, "cache": true, "engine": true}
		conflict := ""
		fs.Visit(func(fl *flag.Flag) {
			switch {
			case *sweep && fl.Name == "run":
				conflict = "-run selects experiments and has no effect with -sweep"
			case !*sweep && sweepOnly[fl.Name]:
				conflict = fmt.Sprintf("-%s is a sweep axis flag; add -sweep (or drop it)", fl.Name)
			}
		})
		if conflict != "" {
			fmt.Fprintln(stderr, conflict)
			return 2
		}
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(stdout, "\nengines:     %s\n", strings.Join(mc.EngineNames(), ", "))
		fmt.Fprintf(stdout, "topologies:  %s\n", strings.Join(mc.Topologies(), ", "))
		fmt.Fprintf(stdout, "protocols:   %s\n", strings.Join(mc.Protocols(), ", "))
		fmt.Fprintf(stdout, "adversaries: %s\n", strings.Join(mc.Adversaries(), ", "))
		return 0
	}

	var spec mc.PlanSpec
	if *sweep {
		var badInts error
		ints := func(s string) []int {
			v, err := splitInts(s)
			badInts = cmp.Or(badInts, err)
			return v
		}
		spec = mc.PlanSpec{
			Topologies:  splitNames(*topo),
			Ns:          ints(*ns),
			Ks:          ints(*ks),
			Protocols:   splitNames(*proto),
			Adversaries: splitNames(*adv),
			Fs:          ints(*fstr),
			Engines:     splitNames(*engine),
			Bandwidths:  ints(*bandwidth),
			Reps:        *reps,
			BaseSeed:    *seed,
			MaxRounds:   *maxRounds,
			Workers:     *workers,
		}
		if badInts != nil {
			fmt.Fprintln(stderr, badInts)
			return 2
		}
	}

	var sink *traceSink
	if *tracePath != "" {
		sink = newTraceSink(*tracePath, stdout)
	}

	var code int
	if *sweep {
		code = runSweep(spec, *summary, *cacheDir, sink, stdout, stderr)
	} else {
		code = runExperiments(*only, *seed, sink, stdout, stderr)
	}
	if sink != nil {
		if err := sink.finish(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

func runExperiments(only string, seed int64, sink *traceSink, stdout, stderr io.Writer) int {
	if sink != nil {
		runSeq := 0
		harness.UseObservers(func() []mc.Observer {
			runSeq++
			return []mc.Observer{sink.observer(fmt.Sprintf("run%04d", runSeq))}
		})
		defer harness.UseObservers(nil)
	}
	var todo []harness.Experiment
	if only == "" {
		todo = harness.All()
	} else {
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.Get(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	failures := 0
	for _, e := range todo {
		tb, err := e.Run(seed)
		if err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", e.ID, err)
			failures++
			continue
		}
		fmt.Fprintln(stdout, tb.Render())
		if !tb.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failures)
		return 1
	}
	fmt.Fprintf(stdout, "all %d experiments match their claims\n", len(todo))
	return 0
}

// traceSink manages the -trace stream: it serializes Write calls from
// concurrently-traced runs (each JSONL line is a single Write), creates the
// file lazily on the first line (so configuration errors never clobber an
// existing trace), and tracks every observer it hands out so write, encode,
// and close failures — which per-run observers have no path to report — can
// surface in the exit code at finish.
type traceSink struct {
	mu        sync.Mutex
	path      string // "" means stream to stdout
	stdout    io.Writer
	f         *os.File
	werr      error
	observers []*mc.JSONLTrace
}

func newTraceSink(path string, stdout io.Writer) *traceSink {
	s := &traceSink{path: path, stdout: stdout}
	if path == "-" {
		s.path = ""
	}
	return s
}

func (s *traceSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.stdout
	if s.path != "" {
		if s.f == nil && s.werr == nil {
			s.f, s.werr = os.Create(s.path)
		}
		if s.werr != nil {
			return 0, s.werr
		}
		w = s.f
	}
	n, err := w.Write(p)
	if err != nil && s.werr == nil {
		s.werr = err
	}
	return n, err
}

// observer hands out a labeled JSONL observer writing to this sink.
func (s *traceSink) observer(label string) mc.Observer {
	jt := mc.NewJSONLTrace(s, label)
	s.mu.Lock()
	s.observers = append(s.observers, jt)
	s.mu.Unlock()
	return jt
}

// finish closes the stream and reports the first failure anywhere in it.
func (s *traceSink) finish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.werr == nil {
			s.werr = err
		}
		s.f = nil
	}
	if s.werr != nil {
		return s.werr
	}
	for _, jt := range s.observers {
		if err := jt.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runSweep streams the spec's records as cells complete — one JSON line each
// (grid order under -workers 1, completion order otherwise) — or, with
// summary, runs the plan to completion and emits one aggregate JSON line
// per cell group, in the plan's cross-product order.
func runSweep(spec mc.PlanSpec, summary bool, cacheDir string, sink *traceSink, stdout, stderr io.Writer) int {
	plan, err := spec.Plan()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if sink != nil {
		plan.Observers = func(cellName string) []mc.Observer {
			return []mc.Observer{sink.observer(cellName)}
		}
	}
	if cacheDir != "" {
		cache, err := mc.OpenResultCache(256<<20, cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		plan.Cache = cache
		defer func() {
			s := cache.Stats()
			if err := cache.Close(); err != nil {
				fmt.Fprintf(stderr, "cache: %v\n", err)
			}
			fmt.Fprintf(stderr, "cache: %d hits, %d misses (%d entries, version %s)\n",
				s.Hits, s.Misses, s.Entries, s.Version)
		}()
	}
	enc := json.NewEncoder(stdout)
	failed, total := 0, 0
	if summary {
		// Plan.Run returns cell order regardless of worker scheduling, so
		// the summaries come out in the spec's cell order.
		records, err := plan.Run(context.Background())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		total = len(records)
		for _, r := range records {
			if r.Error != "" {
				failed++
			}
		}
		for _, s := range mc.Summarize(records) {
			if err := enc.Encode(s); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	} else {
		for r, err := range plan.Stream(context.Background()) {
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			total++
			if r.Error != "" {
				failed++
			}
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d/%d sweep cells failed\n", failed, total)
		return 1
	}
	return 0
}

func splitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitNames(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
