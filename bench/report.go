package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef declares one metric of BENCHMARK.json. floor is the smallest
// regression bound an end-to-end metric gets, whatever its measured spread.
type metricDef struct {
	name, unit, better string
	floor              float64
}

// endToEnd are measured with tracing off and printed with -trace 0. Every
// workload reports every one of them. An op is one computed result: a
// Scenario.Run, or for served-mixed a sweep request that misses the cache.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.10},
	{"op_ms_p90", "ms", "lower", 0.10},
	{"msgs_per_s", "msg/s", "higher", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"rss_mb_p50", "MB", "lower", 0.10},
}

// perLayer come from the traced run and are printed with -trace 1. Every
// workload reports every one of them, named after the module measured.
var perLayer = []metricDef{
	{"graph.build_ms", "ms", "lower", 0},
	{"protoregistry.build_ms", "ms", "lower", 0},
	{"adversary.build_ms", "ms", "lower", 0},
	{"adversary.intercept_share", "ratio", "lower", 0},
	{"adversary.corrupted_edge_rounds", "count", "lower", 0},
	{"congest.setup_ms", "ms", "lower", 0},
	{"congest.round_ms", "ms", "lower", 0},
	{"congest.interround_ms", "ms", "lower", 0},
	{"congest.drain_ms", "ms", "lower", 0},
	{"congest.engine_self_ms", "ms", "lower", 0},
	{"congest.ns_per_node_step", "ns", "lower", 0},
	{"congest.rounds", "count", "lower", 0},
	{"congest.messages", "count", "lower", 0},
	{"congest.node_steps", "count", "lower", 0},
	{"protocol.compute_ms", "ms", "lower", 0},
	{"protocol.compute_share", "ratio", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"planspec.parse_us", "us", "lower", 0},
	{"plan.first_record_ms.hit", "ms", "lower", 0},
	{"plan.first_record_ms.miss", "ms", "lower", 0},
	{"plan.cell_ms_p50", "ms", "lower", 0},
	{"resultcache.hit_ratio", "ratio", "higher", 0},
	{"resultcache.disk_bytes_per_put", "B", "lower", 0},
	{"mobilesimd.hit_ms_p50", "ms", "lower", 0},
	{"mobilesimd.encode_us_per_record", "us", "lower", 0},
	{"mobilesimd.server_sweep_ms_p50", "ms", "lower", 0},
	{"mobilesimd.server_sweep_ms_p99", "ms", "lower", 0},
	{"mobilesimd.overhead_ms_p50", "ms", "lower", 0},
	{"mobilesimd.rejected", "count", "lower", 0},
	{"trace.overhead_frac.phase", "ratio", "lower", 0},
	{"trace.overhead_frac.node", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// measured is one metric value with its unit and sample count.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// span is one timed interval of a trace. Times are nanoseconds since the
// run's epoch. Aggregate spans sum many intervals (a round's node compute
// segments, its adversary intercepts) and are laid out from their parent's
// start with the summed length.
type span struct {
	Trace     int    `json:"trace"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a trace's root
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
	Self      int64  `json:"self_ns"`
}

// report accumulates one workload run's outcomes, metrics and spans.
type report struct {
	epoch     time.Time
	metrics   map[string]measured
	attempted int
	failed    int
	failures  []string
	spans     []span
	traces    int
}

func newReport() *report {
	return &report{epoch: time.Now(), metrics: map[string]measured{}}
}

// now is the time since the run's epoch, the clock every span uses.
func (r *report) now() int64 { return int64(time.Since(r.epoch)) }

// check counts one attempted operation and whether it failed.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = measured{Value: v, Unit: unit, Samples: samples}
}

// scaled sets a measurement multiplied by f, the speed meter's factor (its
// inverse for a rate), and keeps the measurement itself as name.raw.
func (r *report) scaled(name string, raw, f float64, unit string, samples int) {
	r.set(name, raw*f, unit, samples)
	r.set(name+".raw", raw, unit, samples)
}

func (r *report) newTrace() int {
	r.traces++
	return r.traces
}

// span records an interval and returns its id, which children name as
// their parent.
func (r *report) span(trace, parent int, name string, start, end int64) int {
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans), Parent: parent, Name: name, Start: start, End: end})
	return len(r.spans) - 1
}

func (r *report) aggregate(trace, parent int, name string, total int64) {
	start := r.spans[parent].Start
	id := r.span(trace, parent, name, start, start+total)
	r.spans[id].Aggregate = true
}

// selfTimes fills each span's self time: its duration minus its children's.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// provenance identifies what produced a results file.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	WallS      float64 `json:"wall_s"`
}

func hostProvenance() provenance {
	p := provenance{
		Revision:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		p.CPUModel = v
	}
	return p
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key is key.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// memMB reads a memory field of a process's status, such as VmRSS or its
// peak VmHWM, in MB.
func memMB(pid int, field string) (float64, error) {
	v, ok := procField(fmt.Sprintf("/proc/%d/status", pid), field)
	if !ok {
		return 0, fmt.Errorf("no %s for process %d", field, pid)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing %s %q: %w", field, v, err)
	}
	return kb * 1024 / 1e6, nil
}

// sampleRSS reads a process's resident set now and every 100 ms until the
// returned stop is called, which returns the samples in MB. The median of
// these is steadier than the peak, which one late GC cycle can set.
func sampleRSS(pid int) (stop func() []float64) {
	done := make(chan struct{})
	var samples []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := memMB(pid, "VmRSS"); err == nil {
				samples = append(samples, v)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return samples
	}
}

// resultsFile is what a run writes: provenance, outcome counts, and every
// metric measured, declared or not.
type resultsFile struct {
	Provenance provenance          `json:"provenance"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Failures   []string            `json:"failures,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared picks the metrics a run prints: the end-to-end set, or with
// tracing the per-layer set. A missing or non-finite one is an error.
func (r *report) declared(trace bool) (map[string]metricValue, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		out[d.name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

// print writes one line per measured metric, sorted by name, then the
// result line.
func (r *report) print(w io.Writer, workload string, trace bool) error {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%s %s = %.6g %s (n=%d)\n", workload, name, m.Value, m.Unit, m.Samples)
	}
	metrics, err := r.declared(trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize reads results files and prints, per workload and metric, the
// median, the quartile spread and the max/min spread of the runs, and for
// end-to-end metrics the bound those spreads suggest.
func summarize(paths []string, w io.Writer) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var keys []key
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for name, m := range rf.Metrics {
			k := key{rf.Provenance.Workload, name}
			if _, seen := values[k]; !seen {
				keys = append(keys, k)
			}
			values[k] = append(values[k], m.Value)
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return strings.Compare(a.workload+" "+a.metric, b.workload+" "+b.metric)
	})
	fmt.Fprintf(w, "%-18s %-34s %4s %14s %9s %9s %7s\n", "workload", "metric", "n", "median", "iqr/med", "max/min", "bound")
	for _, k := range keys {
		v := values[k]
		bound := ""
		for _, d := range endToEnd {
			if d.name == k.metric {
				bound = fmt.Sprintf("%.3f", suggestBound(d.floor, maxMinSpread(v)))
			}
		}
		fmt.Fprintf(w, "%-18s %-34s %4d %14.6g %9.4f %9.4f %7s\n", k.workload, k.metric, len(v), median(v), iqrShare(v), maxMinSpread(v), bound)
	}
	return nil
}
