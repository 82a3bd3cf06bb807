package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	mc "mobilecongest"
)

func runCapture(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestListDeterministicAndSorted locks the -list contract: repeated
// invocations emit byte-identical output, experiment IDs come out in sorted
// order, and every registry listing (engines, topologies, protocols,
// adversaries) is sorted — no map-iteration order may leak into the CLI.
func TestListDeterministicAndSorted(t *testing.T) {
	out1, _, code := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	out2, _, _ := runCapture(t, "-list")
	if out1 != out2 {
		t.Fatalf("-list output not deterministic:\n%s\n---\n%s", out1, out2)
	}

	listings := map[string]bool{}
	var expIDs []string
	for _, line := range strings.Split(out1, "\n") {
		switch {
		case strings.HasPrefix(line, "engines:"), strings.HasPrefix(line, "topologies:"),
			strings.HasPrefix(line, "protocols:"), strings.HasPrefix(line, "adversaries:"):
			listings[strings.SplitN(line, ":", 2)[0]] = true
			_, list, _ := strings.Cut(line, ":")
			names := strings.Split(strings.TrimSpace(list), ", ")
			if len(names) == 0 {
				t.Fatalf("empty registry listing: %q", line)
			}
			if !sort.StringsAreSorted(names) {
				t.Fatalf("registry listing not sorted: %q", line)
			}
		case line != "" && !strings.HasPrefix(line, " "):
			expIDs = append(expIDs, strings.Fields(line)[0])
		}
	}
	if len(expIDs) < 10 {
		t.Fatalf("only %d experiments listed:\n%s", len(expIDs), out1)
	}
	if !sort.StringsAreSorted(expIDs) {
		t.Fatalf("experiment IDs not sorted: %v", expIDs)
	}
	if len(listings) != 4 {
		t.Fatalf("want 4 registry listings (engines, topologies, protocols, adversaries), got %v", listings)
	}
	if !strings.Contains(out1, "protocols:") || !strings.Contains(out1, "mstclique") {
		t.Fatalf("protocol registry missing from -list:\n%s", out1)
	}
}

// TestCrossModeFlagConflicts: axis flags without -sweep, and -run with
// -sweep, are rejected rather than silently ignored.
func TestCrossModeFlagConflicts(t *testing.T) {
	if _, msg, code := runCapture(t, "-n", "8"); code != 2 || !strings.Contains(msg, "sweep axis flag") {
		t.Fatalf("axis flag without -sweep: code %d, msg %q", code, msg)
	}
	if _, msg, code := runCapture(t, "-sweep", "-run", "T1"); code != 2 || !strings.Contains(msg, "no effect") {
		t.Fatalf("-run with -sweep: code %d, msg %q", code, msg)
	}
}

// TestSweepTraceJSONL: -sweep -trace streams one valid JSON line per round
// per cell plus one summary line per cell, labeled by cell name, while the
// records still go to stdout.
func TestSweepTraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, errb, code := runCapture(t, "-sweep", "-n", "6", "-adv", "none,flip", "-trace", path)
	if code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errb)
	}
	// Records on stdout, one JSON object per line.
	recLines := strings.Split(strings.TrimSpace(out), "\n")
	if len(recLines) != 2 {
		t.Fatalf("want 2 records, got %d", len(recLines))
	}
	rounds := 0
	for _, line := range recLines {
		var rec struct {
			Rounds int    `json:"rounds"`
			Name   string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record not JSON: %v\n%s", err, line)
		}
		rounds += rec.Rounds
	}
	// Trace file: every line valid JSON; per-cell summary lines present.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if want := rounds + 2; len(lines) != want {
		t.Fatalf("trace has %d lines, want %d rounds + 2 summaries", len(lines), rounds)
	}
	doneCells := map[string]bool{}
	for _, line := range lines {
		var row struct {
			Scenario string `json:"scenario"`
			Done     bool   `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		if row.Scenario == "" {
			t.Fatalf("trace line missing cell label: %s", line)
		}
		if row.Done {
			doneCells[row.Scenario] = true
		}
	}
	if len(doneCells) != 2 {
		t.Fatalf("want 2 cell summaries, got %v", doneCells)
	}
}

// TestSweepProtocolAxis: -proto runs a protocol-registry axis end-to-end by
// name, stamping the protocol coordinate into every record, and -workers 1
// streams the records in deterministic grid order.
func TestSweepProtocolAxis(t *testing.T) {
	out, errb, code := runCapture(t,
		"-sweep", "-topo", "clique", "-n", "8", "-proto", "bfs,mstclique",
		"-reps", "2", "-workers", "1", "-seed", "5")
	if code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 records (2 protocols x 2 reps), got %d", len(lines))
	}
	wantProtos := []string{"bfs", "bfs", "mstclique", "mstclique"}
	for i, line := range lines {
		var rec struct {
			Protocol string `json:"protocol"`
			Rounds   int    `json:"rounds"`
			Error    string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record not JSON: %v\n%s", err, line)
		}
		if rec.Error != "" {
			t.Fatalf("cell failed: %s", rec.Error)
		}
		if rec.Protocol != wantProtos[i] {
			t.Fatalf("record %d protocol = %q, want %q (workers=1 must stream in grid order)", i, rec.Protocol, wantProtos[i])
		}
		if rec.Rounds <= 0 {
			t.Fatalf("record %d has no rounds: %s", i, line)
		}
	}
	// Streamed output is deterministic under -workers 1.
	out2, _, _ := runCapture(t,
		"-sweep", "-topo", "clique", "-n", "8", "-proto", "bfs,mstclique",
		"-reps", "2", "-workers", "1", "-seed", "5")
	stripElapsed := func(s string) string {
		var b strings.Builder
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatal(err)
			}
			delete(m, "elapsed_ms")
			enc, _ := json.Marshal(m)
			b.Write(enc)
			b.WriteByte('\n')
		}
		return b.String()
	}
	if stripElapsed(out) != stripElapsed(out2) {
		t.Fatalf("-workers 1 streaming not deterministic:\n%s\n---\n%s", out, out2)
	}
	// Unknown protocol names are rejected up front.
	if _, errb, code := runCapture(t, "-sweep", "-proto", "nosuch"); code != 2 || !strings.Contains(errb, "unknown protocol") {
		t.Fatalf("unknown -proto: code %d, msg %q", code, errb)
	}
}

// TestSweepMatchesPlanSpec pins the one lowering: -sweep output is, byte for
// byte once elapsed_ms is removed, the JSON of the records PlanSpec.Plan().Run
// returns for the same grid, over the topology, k, protocol, adversary, f,
// engine, bandwidth and reps axes. The 32-bit budget makes some cells fail,
// so error records are compared too.
func TestSweepMatchesPlanSpec(t *testing.T) {
	out, errb, code := runCapture(t, "-sweep", "-workers", "1", "-seed", "5",
		"-topo", "clique,circulant", "-n", "8", "-k", "0,3", "-proto", "floodmax,broadcast",
		"-adv", "none,flip", "-f", "1,2", "-engine", "step,shard", "-bandwidth", "0,32", "-reps", "2")
	if code != 1 || !strings.Contains(errb, "sweep cells failed") {
		t.Fatalf("exit %d, stderr %q; want 1 with failed bandwidth cells", code, errb)
	}
	plan, err := mc.PlanSpec{
		Topologies:  []string{"clique", "circulant"},
		Ns:          []int{8},
		Ks:          []int{0, 3},
		Protocols:   []string{"floodmax", "broadcast"},
		Adversaries: []string{"none", "flip"},
		Fs:          []int{1, 2},
		Engines:     []string{"step", "shard"},
		Bandwidths:  []int{0, 32},
		Reps:        2,
		BaseSeed:    5,
		Workers:     1,
	}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := regexp.MustCompile(`,"elapsed_ms":[^,}]*`)
	got, wantS := elapsed.ReplaceAllString(out, ""), elapsed.ReplaceAllString(want.String(), "")
	if len(recs) != 256 || got != wantS {
		t.Fatalf("-sweep output differs from PlanSpec.Plan().Run (%d records):\n%s\n---\n%s", len(recs), got, wantS)
	}
}

// TestSweepSpecChecks pins that -sweep checks its flags through PlanSpec,
// so a value the server refuses exits 2 with the spec's message.
func TestSweepSpecChecks(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "mobilecongest: plan spec: n must be >= 1, got 0"},
		{[]string{"-k", "-1"}, "mobilecongest: plan spec: ks values must be >= 0, got -1"},
		{[]string{"-reps", "-1"}, "mobilecongest: plan spec: reps must be >= 0, got -1"},
		{[]string{"-topo", "moebius"}, `mobilecongest: plan spec: unknown topology "moebius"`},
		{[]string{"-engine", "warp"}, `mobilecongest: plan spec: congest: unknown engine "warp"`},
	} {
		out, errb, code := runCapture(t, append([]string{"-sweep"}, c.args...)...)
		if code != 2 || out != "" || !strings.HasPrefix(errb, c.want) {
			t.Errorf("-sweep %v: exit %d, stdout %q, stderr %q; want exit 2 with %q", c.args, code, out, errb, c.want)
		}
	}
}

// TestSweepSummary: -summary replaces per-rep records with one aggregate
// JSON line per cell group, emitted in the plan's grid order (cycle before
// clique here — axis value order, not lexicographic).
func TestSweepSummary(t *testing.T) {
	out, errb, code := runCapture(t,
		"-sweep", "-topo", "cycle,clique", "-n", "8", "-reps", "3", "-summary", "-seed", "4")
	if code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 summary lines (one per topology), got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], `"topology":"cycle"`) || !strings.Contains(lines[1], `"topology":"clique"`) {
		t.Fatalf("summaries not in grid order:\n%s", out)
	}
	for _, line := range lines {
		var s struct {
			Name   string `json:"name"`
			Reps   int    `json:"reps"`
			Rounds struct {
				Mean float64 `json:"mean"`
				Min  float64 `json:"min"`
				Max  float64 `json:"max"`
			} `json:"rounds"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("summary not JSON: %v\n%s", err, line)
		}
		if s.Reps != 3 {
			t.Fatalf("summary %s aggregated %d reps, want 3", s.Name, s.Reps)
		}
		if s.Rounds.Mean < s.Rounds.Min || s.Rounds.Mean > s.Rounds.Max || s.Rounds.Mean <= 0 {
			t.Fatalf("summary %s has inconsistent rounds aggregate: %s", s.Name, line)
		}
		if strings.Contains(s.Name, "rep=") {
			t.Fatalf("summary name still carries a rep suffix: %s", s.Name)
		}
	}
}

// TestTraceFileUntouchedOnConfigError: the trace file is created lazily on
// the first line, so a configuration error must leave an existing file
// exactly as it was.
func TestTraceFileUntouchedOnConfigError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte("precious\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, code := runCapture(t, "-sweep", "-topo", "nosuch", "-trace", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "precious\n" {
		t.Fatalf("existing trace file clobbered: %q (err %v)", raw, err)
	}
}

// TestTraceWriteFailureReported: a trace stream that cannot be written must
// be reported and fail the run instead of silently exiting 0.
func TestTraceWriteFailureReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "trace.jsonl")
	_, errb, code := runCapture(t, "-sweep", "-n", "6", "-trace", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errb)
	}
	if !strings.Contains(errb, "trace:") {
		t.Fatalf("write failure not reported: %q", errb)
	}
}

// TestExperimentTraceJSONL: -trace also works in experiment mode, labeling
// each simulation of the suite. (T1 runs real compiled simulations; purely
// algebraic experiments like T2 produce no trace lines.)
func TestExperimentTraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	_, errb, code := runCapture(t, "-run", "T1", "-trace", path)
	if code != 0 {
		t.Fatalf("experiment exited %d: %s", code, errb)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 {
		t.Fatal("trace empty")
	}
	sawDone := false
	for _, line := range lines {
		var row struct {
			Scenario string `json:"scenario"`
			Done     bool   `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		if !strings.HasPrefix(row.Scenario, "run") {
			t.Fatalf("experiment trace line missing run label: %s", line)
		}
		sawDone = sawDone || row.Done
	}
	if !sawDone {
		t.Fatal("no run summary line in experiment trace")
	}
}

// TestShardEngineFlag pins the -shards knob: a sweep over step and shard
// engines with a fixed shard count produces identical stats per engine pair
// (the CLI surface of the cross-engine determinism contract), a negative
// count is rejected, and the knob leaks nothing into later invocations.
func TestShardEngineFlag(t *testing.T) {
	out, errb, code := runCapture(t,
		"-sweep", "-topo", "circulant", "-n", "24", "-engine", "step,shard",
		"-shards", "3", "-workers", "1")
	if code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errb)
	}
	type rec struct {
		Engine string `json:"engine"`
		Rounds int    `json:"rounds"`
		Bytes  int    `json:"bytes"`
	}
	byEngine := map[string]rec{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		byEngine[r.Engine] = r
	}
	s, ok1 := byEngine["step"]
	sh, ok2 := byEngine["shard"]
	if !ok1 || !ok2 {
		t.Fatalf("missing engine records: %v", byEngine)
	}
	if s.Rounds != sh.Rounds || s.Bytes != sh.Bytes {
		t.Fatalf("step and shard cells disagree: %+v vs %+v", s, sh)
	}

	if _, errb, code := runCapture(t, "-shards", "-1"); code != 2 || !strings.Contains(errb, "-shards") {
		t.Fatalf("negative -shards: code=%d stderr=%q", code, errb)
	}
}

// TestGoroutineEngineRemoved pins the removal of the goroutine engine: the
// name is unknown in experiment and sweep mode alike, and both exit 2 with
// the registry's error.
func TestGoroutineEngineRemoved(t *testing.T) {
	const want = `congest: unknown engine "goroutine" (have [shard step])`
	for _, args := range [][]string{{"-engine", "goroutine", "-run", "T1"}, {"-sweep", "-engine", "goroutine"}} {
		out, errb, code := runCapture(t, args...)
		if code != 2 || out != "" || !strings.Contains(errb, want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with %q", args, code, out, errb, want)
		}
	}
}

// TestSweepCacheReuse pins the -cache satellite: a second identical
// invocation against the same cache directory recomputes nothing, reports
// its hit count on stderr, and replays the first run's records byte for
// byte (cached cells keep their original timings).
func TestSweepCacheReuse(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "-topo", "clique", "-n", "8,12", "-adv", "none,flip",
		"-reps", "2", "-workers", "1", "-seed", "7", "-cache", dir}

	out1, err1, code := runCapture(t, args...)
	if code != 0 {
		t.Fatalf("cold sweep exited %d: %s", code, err1)
	}
	cells := len(strings.Split(strings.TrimSpace(out1), "\n"))
	if !strings.Contains(err1, "cache: 0 hits,") {
		t.Fatalf("cold run should report zero hits, stderr: %q", err1)
	}

	out2, err2, code := runCapture(t, args...)
	if code != 0 {
		t.Fatalf("warm sweep exited %d: %s", code, err2)
	}
	if out2 != out1 {
		t.Fatalf("warm replay not byte-identical:\ncold:\n%s\nwarm:\n%s", out1, out2)
	}
	wantTally := fmt.Sprintf("cache: %d hits, 0 misses", cells)
	if !strings.Contains(err2, wantTally) {
		t.Fatalf("warm run stderr %q missing %q", err2, wantTally)
	}

	// -cache without -sweep is a cross-mode conflict, like the axis flags.
	if _, msg, code := runCapture(t, "-cache", dir); code != 2 || !strings.Contains(msg, "sweep") {
		t.Fatalf("-cache without -sweep: code %d, msg %q", code, msg)
	}
}
