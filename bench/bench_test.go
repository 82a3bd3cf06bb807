package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	mc "mobilecongest"
)

// serverBin is a mobilesimd built from the same source for the smoke test.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "mobilesimd")
	build := exec.Command("go", "build", "-o", serverBin, "mobilecongest/cmd/mobilesimd")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 91},
	} {
		if got := percentile(tc.values, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.values, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values should be NaN")
	}
}

// The wanted cut points are Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestBounds(t *testing.T) {
	if got := maxMinSpread([]float64{100, 105, 110}); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("maxMinSpread = %v, want 0.1", got)
	}
	for _, tc := range []struct{ floor, spread, want float64 }{
		{0.10, 0.02, 0.10},
		{0.10, 0.10, 0.15},
		{0.03, 0.50, 0.25},
	} {
		if got := suggestBound(tc.floor, tc.spread); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("suggestBound(%v, %v) = %v, want %v", tc.floor, tc.spread, got, tc.want)
		}
	}
}

func TestStripElapsed(t *testing.T) {
	in := `{"a":1,"elapsed_ms":0.125,"error":"x"}` + "\n" + `{"a":2,"elapsed_ms":3e-05}` + "\n"
	want := `{"a":1,"error":"x"}` + "\n" + `{"a":2}` + "\n"
	if got := string(stripElapsed([]byte(in))); got != want {
		t.Errorf("stripElapsed = %q, want %q", got, want)
	}
}

// The tracer must not perturb the simulation: at every level, with the
// observer, the intercept wrapper and the per-node runtime wrapper
// attached, each run's Stats and outputs equal the untraced by-name run's.
func TestTracerTransparent(t *testing.T) {
	for _, c := range []cell{
		{"circulant", 256, 4, "floodmax", 8, "none", 1},
		{"clique", 16, 0, "hardened-clique", 0, "flip", 2},
		{"circulant", 64, 4, "secure-broadcast", 0, "eavesdrop", 2},
	} {
		g, err := mc.BuildTopology(c.topo, c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		// Each op fails unless it reproduces the cell's by-name run.
		tc, err := newTracedCell(c, 3, g, nil, rep)
		if err != nil {
			t.Fatal(err)
		}
		for lv := range levels {
			tot, err := tc.op(lv, rep, rep.newTrace(), -1)
			if err != nil {
				t.Errorf("%v at %s level: %v", c, levelNames[lv], err)
			}
			if lv == nodeLevel && tot.compute+tot.intercept > tot.round+tot.drain {
				t.Errorf("%v: compute %d + intercept %d exceed rounds %d + drain %d", c, tot.compute, tot.intercept, tot.round, tot.drain)
			}
		}
	}
}

// smokeLoad shrinks every phase so that all four workloads run in seconds.
func smokeLoad() load {
	return load{
		setups:          1,
		warmups:         1,
		traceOps:        1,
		seconds:         0.2,
		steps:           []rateStep{{20, 1}},
		capacitySeconds: 0.2,
		conns:           2,
		pool:            2,
		probe:           4,
		verify:          3,
		replayMax:       10,
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against a real mobilesimd")
	}
	env := runEnv{server: serverBin, work: t.TempDir()}
	for _, w := range workloads {
		if w.name == "flood-large" {
			w.spec = oneCell(cell{"circulant", 256, 4, "floodmax", 8, "none", 1})
		}
		for _, trace := range []bool{false, true} {
			rep, _, err := runWorkload(w, smokeLoad(), 1, trace, env)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			if _, err := rep.declared(trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// program runs and prints, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		declared []metric
		defs     []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(set.declared) != len(set.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(set.declared), len(set.defs))
		}
		for i, d := range set.defs {
			m := set.declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
			}
			if d.floor > 0 && (m.Bound < d.floor || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside [%v, 0.25]", d.name, m.Bound, d.floor)
			}
		}
	}
}
