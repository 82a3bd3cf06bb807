package mobilecongest

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestShardPlanStreamConcurrent runs shard-engine cells concurrently under
// Plan.Stream — multiple workers each driving a pooled parallel engine — and
// pins that the record set is identical to the single-worker run. Under
// -race this is the oversubscription/concurrency test for nested parallelism
// (P workers × S shards).
func TestShardPlanStreamConcurrent(t *testing.T) {
	mkPlan := func(workers int) Plan {
		return Plan{
			Axes: []Axis{
				TopologyAxis("circulant"),
				NAxis(48),
				EngineAxis("step", "shard"),
				AdversaryAxis("none", "flip"),
				RepsAxis(5),
			},
			BaseSeed: 17,
			Workers:  workers,
		}
	}
	strip := func(recs []Record) []Record {
		out := append([]Record(nil), recs...)
		for i := range out {
			out[i].ElapsedMS = 0 // wall time is the one legitimately varying field
		}
		return out
	}
	want, err := mkPlan(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mkPlan(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(want), strip(got)) {
		t.Fatalf("records differ between 1 and 4 workers:\n want %+v\n got  %+v", want, got)
	}
	// The step and shard cells of each (adversary, rep) pair must agree —
	// the equivalence contract holding inside a concurrent sweep. The engine
	// axis is excluded from cell seeds, so matching cells share a Seed.
	checked := 0
	for _, r := range want {
		if r.Engine != "shard" {
			continue
		}
		for _, s := range want {
			if s.Engine == "step" && s.Seed == r.Seed && s.Adversary == r.Adversary && s.Rep == r.Rep {
				if s.Rounds != r.Rounds || s.Messages != r.Messages || s.Bytes != r.Bytes {
					t.Fatalf("shard cell diverged from step cell:\n step  %+v\n shard %+v", s, r)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no shard/step cell pairs compared; the check is vacuous")
	}
}

// TestShardPlanStreamCancelNoGoroutineLeak cancels a stream of shard-engine
// cells mid-run and pins that everything — plan workers AND the shard pools
// and node coroutines parked on their run contexts — is released: no plan
// goroutine is left, and the number of pool workers and node coroutines
// returns to its pre-stream level. Those are counted by traceback frame, so
// only other tests' dropped contexts, whose GC cleanups can only lower the
// count, share the tally.
//
// Plan.Stream caps each worker's cells at GOMAXPROCS/Workers shards, and a
// one-shard cell builds no pool, so the test raises GOMAXPROCS to at least
// twice the worker count for its duration and checks that pools were in
// fact parked mid-stream: on a small host it would otherwise pass without
// ever building one.
func TestShardPlanStreamCancelNoGoroutineLeak(t *testing.T) {
	const workers = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2*workers)))
	// With the collector off no GC cleanup can stop a dropped context's
	// coroutines, so only the plan workers' own Close brings the count back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := parkedEngineGoroutines()
	poolsBefore := goroutinesIn(poolFrame)
	plan := Plan{
		Axes: []Axis{
			TopologyAxis("circulant"),
			NAxis(64),
			EngineAxis("shard"),
			RepsAxis(300),
		},
		BaseSeed: 5,
		Workers:  workers,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yielded, poolsPeak := 0, 0
	var finalErr error
	for _, err := range plan.Stream(ctx) {
		if err != nil {
			finalErr = err
			break
		}
		yielded++
		if yielded == 3 {
			poolsPeak = goroutinesIn(poolFrame)
			cancel()
		}
	}
	if finalErr != context.Canceled {
		t.Fatalf("stream ended with %v, want context.Canceled", finalErr)
	}
	if poolsPeak <= poolsBefore {
		t.Fatalf("no worker parked a shard pool: %d pool workers mid-stream, %d before", poolsPeak, poolsBefore)
	}
	waitNoPlanGoroutines(t, "cancelled shard stream")
	waitParkedAtMost(t, before, "cancelled shard stream")
}
