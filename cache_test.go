package mobilecongest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	mc "mobilecongest"
)

// threeAxisPlan is the shared fixture for the cache equivalence tests: a
// 3-axis grid (topology × n × adversary) with reps, mixing engines via the
// default plus an explicit engine cell set elsewhere in the suite.
func threeAxisPlan(cache *mc.ResultCache) mc.Plan {
	return mc.Plan{
		Axes: []mc.Axis{
			mc.TopologyAxis("clique", "circulant"),
			mc.NAxis(8, 12),
			mc.AdversaryAxis("none", "flip"),
			mc.FAxis(2),
			mc.RepsAxis(2),
		},
		BaseSeed: 7,
		Workers:  1,
		Cache:    cache,
	}
}

// TestPlanCachedReplayByteIdentical is the core memoization contract: a warm
// run of a 3-axis plan against the cache a cold run filled replays the cold
// run byte for byte — records (including the original timings), Run order,
// and Summarize output — without touching a RunContext.
func TestPlanCachedReplayByteIdentical(t *testing.T) {
	cache := mc.NewResultCache(0)
	cold, err := threeAxisPlan(cache).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Hits != 0 || s.Misses != uint64(len(cold)) || s.Entries != len(cold) {
		t.Fatalf("cold stats = %+v for %d cells", s, len(cold))
	}

	warm, err := threeAxisPlan(cache).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, _ := json.Marshal(cold)
	warmJSON, _ := json.Marshal(warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("warm replay differs:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
	coldSum, _ := json.Marshal(mc.Summarize(cold))
	warmSum, _ := json.Marshal(mc.Summarize(warm))
	if !bytes.Equal(coldSum, warmSum) {
		t.Fatalf("summaries differ:\ncold: %s\nwarm: %s", coldSum, warmSum)
	}
	s = cache.Stats()
	if s.Hits != uint64(len(cold)) || s.Misses != uint64(len(cold)) {
		t.Fatalf("warm stats = %+v, want %d hits", s, len(cold))
	}
}

// TestPlanCacheVersionKeying: rotating the cache's code version invalidates
// every entry; rotating back restores them. A rebuilt binary must never
// serve records computed by different code.
func TestPlanCacheVersionKeying(t *testing.T) {
	cache := mc.NewResultCache(0)
	plan := mc.Plan{
		Axes:     []mc.Axis{mc.NAxis(8), mc.RepsAxis(4)},
		BaseSeed: 3,
		Workers:  1,
		Cache:    cache,
	}
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := cache.Stats()
	if base.Misses != 4 {
		t.Fatalf("cold misses = %d", base.Misses)
	}

	cache.SetVersion("test-v2")
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Hits != 0 || s.Misses != 8 {
		t.Fatalf("post-rotation stats = %+v, want all misses", s)
	}

	cache.SetVersion(base.Version)
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 4 {
		t.Fatalf("rotating back should restore the v1 entries: %+v", s)
	}
}

// TestPlanCacheErrorRecordsBypass: cells that abort (a 1-bit bandwidth
// budget trips ErrBandwidthExceeded on the first flood round) are never
// inserted, so every run recomputes them — an error must not become sticky.
func TestPlanCacheErrorRecordsBypass(t *testing.T) {
	cache := mc.NewResultCache(0)
	plan := mc.Plan{
		Axes: []mc.Axis{
			mc.NAxis(8),
			mc.BandwidthAxis(1),
			mc.RepsAxis(2),
		},
		BaseSeed: 3,
		Workers:  1,
		Cache:    cache,
	}
	first, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.Error == "" {
			t.Fatalf("cell %s should have tripped the bandwidth budget", r.Name)
		}
	}
	second, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		f, s := first[i], second[i]
		f.ElapsedMS, s.ElapsedMS = 0, 0 // recomputed, so timings differ
		fj, _ := json.Marshal(f)
		sj, _ := json.Marshal(s)
		if !bytes.Equal(fj, sj) {
			t.Fatalf("recomputed error record %d drifted:\n%s\n%s", i, fj, sj)
		}
	}
	s := cache.Stats()
	if s.Entries != 0 || s.Puts != 0 || s.Hits != 0 {
		t.Fatalf("error records leaked into the cache: %+v", s)
	}
}

// TestPlanCacheIneligibleCells: plans with per-cell Observers, which watch
// rounds a cache replay never executes, never consult or fill the cache.
func TestPlanCacheIneligibleCells(t *testing.T) {
	t.Run("observers", func(t *testing.T) {
		cache := mc.NewResultCache(0)
		plan := mc.Plan{
			Axes:      []mc.Axis{mc.NAxis(6), mc.RepsAxis(2)},
			BaseSeed:  1,
			Workers:   1,
			Observers: func(string) []mc.Observer { return nil },
			Cache:     cache,
		}
		if _, err := plan.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		s := cache.Stats()
		if s.Hits+s.Misses+s.Puts != 0 || s.Entries != 0 {
			t.Fatalf("ineligible cells touched the cache: %+v", s)
		}
	})
}

// TestPlanCacheKeyedByMaxRoundsAndTrace: MaxRounds changes what a cell
// computes without appearing in its name, so it folds into the content
// address — a truncated run must never satisfy a full one. (Traces are
// watched through Plan.Observers, whose Plans never touch the cache; see
// TestPlanCacheIneligibleCells.)
func TestPlanCacheKeyedByMaxRoundsAndTrace(t *testing.T) {
	cache := mc.NewResultCache(0)
	base := mc.Plan{
		Axes:     []mc.Axis{mc.NAxis(8)},
		BaseSeed: 3,
		Workers:  1,
		Cache:    cache,
	}
	run := func(p mc.Plan) mc.Record {
		t.Helper()
		recs, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return recs[0]
	}
	full := run(base)

	// A 1-round cap aborts the 2-round flood with ErrRoundLimit: its own
	// key (a miss), and as an error record it is never inserted.
	tight := base
	tight.MaxRounds = 1
	if got := run(tight); !strings.Contains(got.Error, "round limit") {
		t.Fatalf("tight cap should abort: %+v", got)
	}
	// A generous cap completes identically to the uncapped run but still
	// lives under its own content address.
	loose := base
	loose.MaxRounds = 64
	if got := run(loose); got.Error != "" || got.Rounds != full.Rounds {
		t.Fatalf("loose cap drifted: %+v vs %+v", got, full)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 3 || s.Entries != 2 {
		t.Fatalf("variants collided in the cache: %+v", s)
	}
	// And each variant replays from its own entry.
	if got := run(base); got.Rounds != full.Rounds {
		t.Fatalf("full run no longer cached cleanly: %+v", got)
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("full-run replay missed: %+v", s)
	}
}

// TestPlanCacheConcurrentPlans: 8 goroutines run overlapping plans against
// one shared cache — the library-level race leg (the server test covers the
// HTTP path). Every run must return the same records a private cold run
// would, regardless of which goroutine populated which entry.
func TestPlanCacheConcurrentPlans(t *testing.T) {
	want, err := threeAxisPlan(nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantByName := make(map[string]string, len(want))
	for _, r := range want {
		r.ElapsedMS = 0
		j, _ := json.Marshal(r)
		wantByName[r.Name] = string(j)
	}

	cache := mc.NewResultCache(0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plan := threeAxisPlan(cache)
			if g%2 == 1 {
				// Half the goroutines sweep a sub-grid, so entries are
				// shared across differently-shaped plans.
				plan.Axes[0] = mc.TopologyAxis("clique")
			}
			plan.Workers = 2
			recs, err := plan.Run(context.Background())
			if err != nil {
				errs <- err
				return
			}
			for _, r := range recs {
				r.ElapsedMS = 0
				j, _ := json.Marshal(r)
				if wantJ, ok := wantByName[r.Name]; !ok || wantJ != string(j) {
					errs <- fmt.Errorf("goroutine %d: cell %s drifted: %s", g, r.Name, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cache.Stats(); s.Entries != len(want) {
		t.Fatalf("cache holds %d entries, want %d: %+v", s.Entries, len(want), s)
	}
}
