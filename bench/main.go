// Command bench is mobilecongest's end-to-end benchmark. It measures the
// two paths a user takes — a Scenario.Run call and a sweep served by
// mobilesimd — entirely from outside the simulator, on four workloads drawn
// from the source paper, and checks every output it times.
//
// Build and run it through run.sh, which compiles the benchmark and
// mobilesimd from source first:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -summarize .bench_build/results/*.json
//
// With no -workload it runs every workload, each in its own child process.
// The last line of standard output is a JSON object with the outcome counts
// and the end-to-end metrics, or with -trace 1 the per-layer metrics. Each
// run also writes a results file with its provenance, and a traced run a
// span file; see README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "input seed: 1 is the reference seed and 2 is held out for checking claims")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown and prints the per-layer metrics")
	out := fs.String("out", "", "results file (default <work>/results/<workload>-seed<N>-trace<T>.json)")
	server := fs.String("mobilesimd", "", "mobilesimd binary, built from the same source")
	work := fs.String("work", ".bench_build", "directory for caches, results and span files")
	sum := fs.Bool("summarize", false, "summarize the results files named as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sum {
		if err := summarize(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *server == "" {
		fmt.Fprintln(stderr, "bench: -mobilesimd is required (run.sh builds and passes it)")
		return 2
	}
	if *name == "" {
		if *out != "" {
			fmt.Fprintln(stderr, "bench: -out needs -workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(*work, "results"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	env := runEnv{server: *server, work: *work}
	rep, prov, err := runWorkload(w, defaultLoad(*seconds, w.served), *seed, *trace == 1, env)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	base := filepath.Join(*work, "results", fmt.Sprintf("%s-seed%d", w.name, *seed))
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-trace%d.json", base, *trace)
	}
	if err := writeResults(path, base+"-spans.json", rep, prov); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout, w.name, prov.Trace); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// runWorkload generates the workload's inputs from the seed and runs it.
func runWorkload(w workload, ld load, seed int64, trace bool, env runEnv) (*report, provenance, error) {
	prov := hostProvenance()
	prov.Workload, prov.Seed, prov.Trace, prov.Seconds = w.name, seed, trace, ld.seconds
	in := generate(w, seed, ld)
	rep := newReport()
	start := time.Now()
	var err error
	if w.served {
		err = runServed(w, ld, in, trace, env, rep)
	} else {
		err = runDirect(w, ld, in, trace, env, rep)
	}
	prov.WallS = time.Since(start).Seconds()
	rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", rep.attempted)
	return rep, prov, err
}

// writeResults writes the results file and, for a traced run, the span file.
func writeResults(path, spansPath string, rep *report, prov provenance) error {
	rf := resultsFile{Provenance: prov, Attempted: rep.attempted, Failed: rep.failed, Failures: rep.failures, Metrics: rep.metrics}
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	if !prov.Trace {
		return nil
	}
	selfTimes(rep.spans)
	return writeJSON(spansPath, struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{prov.Workload, prov.Seed, rep.spans})
}

// runAll runs every workload, one after another, each in a child process of
// its own so that peak RSS and GC state are per workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintln(stderr, "bench:", err)
			}
			code = 1
		}
	}
	return code
}
