package mobilecongest

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// TestSweepLoweringPinnedByteIdentical pins the fixed-axis plan's exact
// cell vocabulary: with the topology, n, k, adversary, f, engine, and reps
// axes in canonical order, record names keep the
// "topo=T,n=N,k=K,adv=A,f=F,engine=E,rep=R" shape, seeds are CellSeed over
// the engine-free prefix, and order is the axes' nesting order.
func TestSweepLoweringPinnedByteIdentical(t *testing.T) {
	topos, ns, advs, fs, engines := []string{"clique", "cycle"}, []int{6, 8}, []string{"none", "flip"}, []int{2}, []string{"step", "goroutine"}
	const reps, base = 2, 77
	plan := Plan{
		Axes: []Axis{
			TopologyAxis(topos...),
			NAxis(ns...),
			KAxis(0),
			AdversaryAxis(advs...),
			FAxis(fs...),
			EngineAxis(engines...),
			RepsAxis(reps),
		},
		BaseSeed: base,
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, topo := range topos {
		for _, n := range ns {
			for _, adv := range advs {
				for _, f := range fs {
					for _, eng := range engines {
						for rep := 0; rep < reps; rep++ {
							simLabel := fmt.Sprintf("topo=%s,n=%d,k=0,adv=%s,f=%d", topo, n, adv, f)
							wantName := fmt.Sprintf("%s,engine=%s,rep=%d", simLabel, eng, rep)
							wantSeed := CellSeed(base, simLabel, rep)
							r := recs[i]
							if r.Name != wantName {
								t.Fatalf("record %d name = %q, want %q", i, r.Name, wantName)
							}
							if r.Seed != wantSeed {
								t.Fatalf("record %d (%s) seed = %d, want %d", i, r.Name, r.Seed, wantSeed)
							}
							if r.Protocol != "" || r.P != 0 {
								t.Fatalf("fixed-axis record %d carries protocol coordinates: %+v", i, r)
							}
							i++
						}
					}
				}
			}
		}
	}
	if i != len(recs) {
		t.Fatalf("expected %d records, got %d", i, len(recs))
	}
}

func planForStreamTests(workers int) Plan {
	return Plan{
		Axes: []Axis{
			TopologyAxis("clique", "cycle"),
			NAxis(6, 8),
			ProtocolAxis("floodmax", "broadcast"),
			AdversaryAxis("none", "flip"),
			FAxis(1),
			RepsAxis(2),
		},
		BaseSeed: 9,
		Workers:  workers,
	}
}

// TestPlanStreamMatchesRun: Stream yields exactly Run's record set (order
// aside — Stream yields in completion order), for several worker counts.
func TestPlanStreamMatchesRun(t *testing.T) {
	want, err := planForStreamTests(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		var got []Record
		for rec, err := range planForStreamTests(workers).Stream(context.Background()) {
			if err != nil {
				t.Fatalf("workers=%d: stream error: %v", workers, err)
			}
			got = append(got, rec)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: stream yielded %d records, run %d", workers, len(got), len(want))
		}
		sortRecs := func(rs []Record) []Record {
			out := append([]Record(nil), rs...)
			sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
			for i := range out {
				out[i].ElapsedMS = 0
			}
			return out
		}
		w, g := sortRecs(want), sortRecs(got)
		for i := range w {
			if !reflect.DeepEqual(w[i], g[i]) {
				t.Fatalf("workers=%d: stream and run record sets differ at %s:\n run    %+v\n stream %+v",
					workers, w[i].Name, w[i], g[i])
			}
		}
	}
}

// TestPlanRunOrderDeterministic: Run returns records in the axes' cross
// product order regardless of worker count.
func TestPlanRunOrderDeterministic(t *testing.T) {
	var names []string
	for _, workers := range []int{1, 2, 7} {
		recs, err := planForStreamTests(workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cur := make([]string, len(recs))
		for i, r := range recs {
			cur[i] = r.Name
		}
		if names == nil {
			names = cur
			continue
		}
		if !reflect.DeepEqual(names, cur) {
			t.Fatalf("record order changed with workers=%d:\n %v\n %v", workers, names, cur)
		}
	}
}

// TestPlanStreamCancellation: cancelling mid-stream ends the sequence
// promptly with ctx.Err() as the final element, and leaks no workers.
func TestPlanStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := Plan{
		Axes: []Axis{
			TopologyAxis("circulant"),
			NAxis(32),
			RepsAxis(500),
		},
		BaseSeed: 3,
		Workers:  4,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var yielded int
	var finalErr error
	start := time.Now()
	for rec, err := range plan.Stream(ctx) {
		if err != nil {
			finalErr = err
			break
		}
		_ = rec
		yielded++
		if yielded == 3 {
			cancel()
		}
	}
	cancel()
	if finalErr != context.Canceled {
		t.Fatalf("stream ended with %v, want context.Canceled", finalErr)
	}
	if yielded >= 500 {
		t.Fatal("cancellation did not stop the stream")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled stream took %v to return", elapsed)
	}
	// Workers must all have exited; allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Run under a cancelled context returns the full record set with every
	// never-run cell explicitly marked failed, so downstream aggregation
	// (Summarize) can never mistake them for zero-stat successes.
	cancelledCtx, cancel2 := context.WithCancel(context.Background())
	cancel2()
	recs, err := plan.Run(cancelledCtx)
	if err != context.Canceled {
		t.Fatalf("cancelled Run returned err %v", err)
	}
	if len(recs) != 500 {
		t.Fatalf("cancelled Run returned %d records, want all 500", len(recs))
	}
	marked := 0
	for _, r := range recs {
		if r.Rounds == 0 && r.Error == "" {
			t.Fatalf("cancelled Run left an unrun cell looking successful: %+v", r)
		}
		if r.Error != "" {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("cancelled Run marked no cells as not run")
	}

	// Breaking out of the stream early (no cancellation) must not leak
	// either.
	for rec, err := range plan.Stream(context.Background()) {
		_, _ = rec, err
		break
	}
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline.Add(5 * time.Second)) {
			t.Fatalf("early break leaked goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanProtocolAxis: the protocol axis runs registry protocols by name,
// stamps Record.Protocol/P, and extends the seed label canonically — cells
// differing only in protocol draw different seeds, while a plan without the
// axis keeps the engine-free grid labels.
func TestPlanProtocolAxis(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			TopologyAxis("circulant"),
			NAxis(10),
			KAxis(2),
			ProtocolAxis("floodmax", "bfs"),
			AdversaryAxis("none"),
			FAxis(1),
			RepsAxis(1),
		},
		BaseSeed: 21,
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for i, wantProto := range []string{"floodmax", "bfs"} {
		r := recs[i]
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.Name, r.Error)
		}
		if r.Protocol != wantProto {
			t.Fatalf("record %d protocol = %q, want %q", i, r.Protocol, wantProto)
		}
		simLabel := fmt.Sprintf("topo=circulant,n=10,k=2,proto=%s,adv=none,f=1", wantProto)
		if want := CellSeed(21, simLabel, 0); r.Seed != want {
			t.Fatalf("record %d seed = %d, want CellSeed over %q = %d", i, r.Seed, simLabel, want)
		}
	}
	if recs[0].Seed == recs[1].Seed {
		t.Fatal("protocol axis did not extend the seed derivation")
	}
}

// TestPlanVaryFuncAxis: user-defined axes apply their setting per cell and
// contribute canonical seed-relevant label fragments.
func TestPlanVaryFuncAxis(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			TopologyAxis("cycle"),
			NAxis(10),
			VaryFunc("maxrounds", []string{"2", "4"}, func(s *Scenario, v string) {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				WithMaxRounds(n)(s)
			}),
		},
		BaseSeed: 2,
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// FloodMax on cycle(10) wants diameter+1 = 6 rounds; the axis caps the
	// run, so the engine aborts with its round-limit error at 2 and 4.
	for i, wantRounds := range []int{2, 4} {
		r := recs[i]
		wantPart := fmt.Sprintf("maxrounds=%d", wantRounds)
		simLabel := fmt.Sprintf("topo=cycle,n=10,%s", wantPart)
		if want := CellSeed(2, simLabel, 0); r.Seed != want {
			t.Fatalf("record %d seed = %d, want CellSeed over %q = %d", i, r.Seed, simLabel, want)
		}
		if r.Error == "" {
			t.Fatalf("record %d: expected the capped run to surface the round-limit error, got none", i)
		}
	}
	if recs[0].Seed == recs[1].Seed {
		t.Fatal("custom axis did not extend the seed derivation")
	}
}

func TestPlanEmptyAxisRejected(t *testing.T) {
	if _, err := (Plan{Axes: []Axis{TopologyAxis()}}).Run(context.Background()); err == nil {
		t.Fatal("empty axis accepted")
	}
	if _, err := (Plan{Axes: []Axis{ProtocolAxis("nosuch")}}).Run(context.Background()); err == nil {
		t.Fatal("unknown protocol name accepted")
	}
	// A p axis without a protocol axis would perturb seeds without changing
	// the runs — rejected up front.
	if _, err := (Plan{Axes: []Axis{ProtocolParamAxis(4, 8)}}).Run(context.Background()); err == nil {
		t.Fatal("ProtocolParamAxis without ProtocolAxis accepted")
	}
	if _, err := (Plan{Axes: []Axis{ProtocolAxis("floodmax"), ProtocolParamAxis(4)}}).Run(context.Background()); err != nil {
		t.Fatalf("p axis with protocol axis rejected: %v", err)
	}
	// The pairing rule is keyed on axis kind, not display name: a VaryFunc
	// axis that happens to be called "protocol" does not satisfy it, and one
	// called "p" is not subject to it.
	if _, err := (Plan{Axes: []Axis{
		VaryFunc("protocol", []string{"x"}, func(*Scenario, string) {}),
		ProtocolParamAxis(4),
	}}).Run(context.Background()); err == nil {
		t.Fatal("VaryFunc named \"protocol\" satisfied the ProtocolParamAxis pairing rule")
	}
	if _, err := (Plan{Axes: []Axis{
		TopologyAxis("clique"),
		VaryFunc("p", []string{"x"}, func(*Scenario, string) {}),
	}}).Run(context.Background()); err != nil {
		t.Fatalf("VaryFunc named \"p\" wrongly subjected to the pairing rule: %v", err)
	}
	// Duplicate built-in axes are rejected; duplicate custom names are fine
	// (each VaryFunc is its own dimension).
	if _, err := (Plan{Axes: []Axis{NAxis(8), NAxis(16)}}).Run(context.Background()); err == nil {
		t.Fatal("duplicate built-in axis accepted")
	}
	// A configuration error surfaces as the stream's only element.
	n := 0
	for _, err := range (Plan{Axes: []Axis{AdversaryAxis("nosuch")}}).Stream(context.Background()) {
		n++
		if err == nil {
			t.Fatal("stream yielded a record for a misconfigured plan")
		}
	}
	if n != 1 {
		t.Fatalf("misconfigured stream yielded %d elements, want 1", n)
	}
}

func TestSummarize(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			TopologyAxis("clique", "cycle"),
			NAxis(8),
			AdversaryAxis("flip"),
			FAxis(1),
			RepsAxis(3),
		},
		BaseSeed: 13,
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2 (one per topology)", len(sums))
	}
	for _, s := range sums {
		if s.Reps != 3 || s.Errors != 0 {
			t.Fatalf("summary %s: reps=%d errors=%d, want 3/0", s.Name, s.Reps, s.Errors)
		}
		if s.Rounds.Min > s.Rounds.Mean || s.Rounds.Mean > s.Rounds.Max {
			t.Fatalf("summary %s: inconsistent rounds aggregate %+v", s.Name, s.Rounds)
		}
		if s.Messages.Mean <= 0 {
			t.Fatalf("summary %s: empty messages aggregate", s.Name)
		}
	}
	// Aggregation is exact: recompute one group's mean by hand.
	var rounds []float64
	for _, r := range recs {
		if r.Topology == "clique" {
			rounds = append(rounds, float64(r.Rounds))
		}
	}
	var mean float64
	for _, v := range rounds {
		mean += v
	}
	mean /= float64(len(rounds))
	if sums[0].Topology != "clique" || sums[0].Rounds.Mean != mean {
		t.Fatalf("summary mean %v != hand-computed %v", sums[0].Rounds.Mean, mean)
	}

	// Failed reps are counted, not aggregated.
	fail := recs[0]
	fail.Error = "boom"
	fail.Rounds = 1 << 20
	sums = Summarize([]Record{fail, recs[1], recs[2]})
	if sums[0].Errors != 1 || sums[0].Reps != 2 {
		t.Fatalf("error accounting: %+v", sums[0])
	}
	if sums[0].Rounds.Max == float64(1<<20) {
		t.Fatal("failed record leaked into the aggregates")
	}
}
