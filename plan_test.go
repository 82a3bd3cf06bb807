package mobilecongest

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
)

// TestSweepLoweringPinnedByteIdentical pins a protocol-free spec's exact
// cell vocabulary: record names keep the
// "topo=T,n=N,k=K,adv=A,f=F,engine=E,rep=R" shape, seeds are CellSeed over
// the engine-free prefix, and order is the canonical nesting order.
func TestSweepLoweringPinnedByteIdentical(t *testing.T) {
	topos, ns, advs, fs, engines := []string{"clique", "cycle"}, []int{6, 8}, []string{"none", "flip"}, []int{2}, []string{"step", "shard"}
	const reps, base = 2, 77
	plan := Plan{PlanSpec: PlanSpec{
		Topologies:  topos,
		Ns:          ns,
		Ks:          []int{0},
		Adversaries: advs,
		Fs:          fs,
		Engines:     engines,
		Reps:        reps,
		BaseSeed:    base,
	}}
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
	return Plan{PlanSpec: PlanSpec{
		Topologies:  []string{"clique", "cycle"},
		Ns:          []int{6, 8},
		Protocols:   []string{"floodmax", "broadcast"},
		Adversaries: []string{"none", "flip"},
		Fs:          []int{1},
		Reps:        2,
		BaseSeed:    9,
		Workers:     workers,
	}}
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

// TestPlanRunOrderDeterministic: Run returns records in the spec's cross
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
// promptly with ctx.Err() as the final element, and leaks no workers and no
// node coroutines parked on the workers' run contexts.
func TestPlanStreamCancellation(t *testing.T) {
	// With the collector off no GC cleanup can stop a dropped context's
	// coroutines, so only the plan workers' own Close brings the count back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := parkedEngineGoroutines()
	plan := Plan{PlanSpec: PlanSpec{
		Topologies: []string{"circulant"},
		Ns:         []int{32},
		Reps:       500,
		BaseSeed:   3,
		Workers:    4,
	}}
	// Cancel only after 8 cells per worker, so the workers have run the
	// second cells from which their contexts park a slab of coroutines.
	// By pigeonhole at least one worker has, so the slabs alive at that
	// moment hold at least one n=32 slab.
	cancelAt := 8 * plan.Workers
	ctx, cancel := context.WithCancel(context.Background())
	var yielded, peak int
	var finalErr error
	start := time.Now()
	for rec, err := range plan.Stream(ctx) {
		if err != nil {
			finalErr = err
			break
		}
		_ = rec
		yielded++
		if yielded == cancelAt {
			peak = parkedEngineGoroutines()
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
	if peak < before+32 {
		t.Fatalf("no worker parked a slab: %d engine goroutines mid-stream, %d before", peak, before)
	}
	// Workers must all have exited and closed their contexts; allow the
	// runtime a moment to reap them.
	waitNoPlanGoroutines(t, "cancelled stream")
	waitParkedAtMost(t, before, "cancelled stream")

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
	waitNoPlanGoroutines(t, "early break")
	waitParkedAtMost(t, before, "early break")
}

// goroutinesIn counts the goroutines whose traceback contains frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) {
			count++
		}
	}
	return count
}

// planFrame appears in the traceback of every goroutine a plan run starts:
// its dispatcher, its workers, and the closer that waits for them.
const planFrame = "mobilecongest.runCells"

// waitNoPlanGoroutines polls until no goroutine of a plan run is left. It
// counts the plan's own goroutines by traceback frame rather than the
// process-wide goroutine count, which goroutines of other tests' dropped
// run contexts, reclaimed by GC cleanups at any time, would disturb.
func waitNoPlanGoroutines(t *testing.T, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goroutinesIn(planFrame) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked %d plan goroutines", label, goroutinesIn(planFrame))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// poolFrame appears in the traceback of every shard-pool worker.
const poolFrame = "congest.(*shardPool).work"

// parkedEngineGoroutines counts the goroutines a run context keeps between
// runs: shard-pool workers and node coroutines.
func parkedEngineGoroutines() int {
	return goroutinesIn(poolFrame) + goroutinesIn("congest.(*stepNode).loop")
}

// waitParkedAtMost polls until no more than limit shard-pool workers and
// node coroutines are left, so a plan worker that retires without closing
// its run context fails the test.
func waitParkedAtMost(t *testing.T, limit int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedEngineGoroutines() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked shard-pool workers or node coroutines: before=%d after=%d", label, limit, parkedEngineGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanProtocolAxis: a protocols list runs registry protocols by name,
// stamps Record.Protocol/P, and extends the seed label canonically — cells
// differing only in protocol draw different seeds.
func TestPlanProtocolAxis(t *testing.T) {
	plan := Plan{PlanSpec: PlanSpec{
		Topologies:  []string{"circulant"},
		Ns:          []int{10},
		Ks:          []int{2},
		Protocols:   []string{"floodmax", "bfs"},
		Adversaries: []string{"none"},
		Fs:          []int{1},
		Reps:        1,
		BaseSeed:    21,
	}}
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
		t.Fatal("the protocols list did not extend the seed derivation")
	}
}

// TestPlanEmptyAxisRejected: a Plan built as a literal, without
// PlanSpec.Plan, is still validated before any cell is expanded.
func TestPlanEmptyAxisRejected(t *testing.T) {
	run := func(sp PlanSpec) error {
		_, err := Plan{PlanSpec: sp}.Run(context.Background())
		return err
	}
	if err := run(PlanSpec{Protocols: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown protocol name accepted")
	}
	// A ps list without protocols would perturb seeds without changing the
	// runs — rejected up front.
	if err := run(PlanSpec{Ps: []int{4, 8}}); err == nil {
		t.Fatal("ps without protocols accepted")
	}
	if err := run(PlanSpec{Protocols: []string{"floodmax"}, Ps: []int{4}}); err != nil {
		t.Fatalf("ps with protocols rejected: %v", err)
	}
	// A configuration error surfaces as the stream's only element.
	n := 0
	for _, err := range (Plan{PlanSpec: PlanSpec{Adversaries: []string{"nosuch"}}}).Stream(context.Background()) {
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
	plan := Plan{PlanSpec: PlanSpec{
		Topologies:  []string{"clique", "cycle"},
		Ns:          []int{8},
		Adversaries: []string{"flip"},
		Fs:          []int{1},
		Reps:        3,
		BaseSeed:    13,
	}}
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

	// Cells that differ only in their bandwidth budget are two summaries,
	// and each carries its budget, as the records do.
	recs, err = Plan{PlanSpec: PlanSpec{Ns: []int{8}, Bandwidths: []int{0, 64}, Reps: 2, BaseSeed: 13}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sums = Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2 (one per budget)", len(sums))
	}
	for i, want := range []int{0, 64} {
		j, err := json.Marshal(sums[i])
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Bandwidth int `json:"bandwidth"`
		}
		if err := json.Unmarshal(j, &got); err != nil {
			t.Fatal(err)
		}
		if got.Bandwidth != want || sums[i].Reps != 2 {
			t.Fatalf("summary %d = %s, want bandwidth %d over 2 reps", i, j, want)
		}
	}
}

// TestPlanCacheReplacedRegistration: a cache key names a cell's topology,
// protocol and adversary by name alone, so a cached Plan must run every
// cell whose registrations are not built-in ones nobody replaced, never
// replay a record another registration under the same name computed.
func TestPlanCacheReplacedRegistration(t *testing.T) {
	cache := NewResultCache(0)
	run := func(p Plan) Record {
		t.Helper()
		recs, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Error != "" {
			t.Fatal(recs[0].Error)
		}
		recs[0].ElapsedMS = 0
		return recs[0]
	}
	flood := func(rounds int) ProtocolFunc {
		return func(*Graph, ProtoParams) (Protocol, any, error) { return algorithms.FloodMax(rounds), nil, nil }
	}
	plan := Plan{PlanSpec: PlanSpec{Ns: []int{6}, Protocols: []string{"zz-proto"}, BaseSeed: 1, Workers: 1}, Cache: cache}
	RegisterProtocol("zz-proto", flood(3))
	if got := run(plan).Rounds; got != 3 {
		t.Fatalf("FloodMax(3) ran %d rounds", got)
	}
	RegisterProtocol("zz-proto", flood(7))
	if got := run(plan).Rounds; got != 7 {
		t.Fatalf("after zz-proto became FloodMax(7), the cached Plan read %d rounds, want 7", got)
	}
	if s := cache.Stats(); s.Hits+s.Misses+s.Puts != 0 {
		t.Fatalf("cells of a user registration touched the cache: %+v", s)
	}

	// A built-in registration is cached until a Register call replaces it.
	adversaries.RegisterBuiltIn("zz-adv", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip), nil
	})
	plan = Plan{PlanSpec: PlanSpec{Ns: []int{6}, Adversaries: []string{"zz-adv"}, Fs: []int{2}, BaseSeed: 1, Workers: 1}, Cache: cache}
	flipped := run(plan)
	if got := run(plan); got != flipped || cache.Stats().Hits != 1 {
		t.Fatalf("the built-in cell was not replayed: %+v, cache %+v", got, cache.Stats())
	}
	RegisterAdversary("zz-adv", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptDrop), nil
	})
	dropped := run(plan)
	uncached := plan
	uncached.Cache = nil
	if want := run(uncached); dropped != want {
		t.Fatalf("after zz-adv was replaced, the cached Plan read %+v, want %+v", dropped, want)
	}
	if dropped == flipped {
		t.Fatal("the flipping and the dropping adversary gave the same record; the check is vacuous")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Puts != 1 {
		t.Fatalf("the replaced registration's cell touched the cache: %+v", s)
	}
}
