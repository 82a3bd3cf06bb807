package mobilecongest

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sweep runs a plan to completion with a background context.
func sweep(p Plan) ([]Record, error) { return p.Run(context.Background()) }

func TestSweepGridShapeAndDeterminism(t *testing.T) {
	plan := Plan{PlanSpec: PlanSpec{
		Topologies:  []string{"clique", "cycle"},
		Ns:          []int{6, 8},
		Adversaries: []string{"none", "flip"},
		Fs:          []int{1},
		Engines:     []string{"step"},
		Reps:        2,
		BaseSeed:    5,
	}}
	recs, err := sweep(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 1 * 1 * 2; len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.Name, r.Error)
		}
		if r.Rounds <= 0 || r.Messages <= 0 {
			t.Fatalf("cell %s has empty stats: %+v", r.Name, r)
		}
		if r.Adversary == "none" && r.CorruptedEdgeRounds != 0 {
			t.Fatalf("fault-free cell %s reports corruption", r.Name)
		}
	}
	// Per-cell seeds are deterministic and distinct across reps.
	if recs[0].Seed == recs[1].Seed {
		t.Fatal("reps of one cell share a seed")
	}
	again, err := sweep(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		a, b := recs[i], again[i]
		a.ElapsedMS, b.ElapsedMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sweep not deterministic at cell %d:\n %+v\n %+v", i, a, b)
		}
	}
}

func TestSweepSeedsIndependentOfGridShape(t *testing.T) {
	wide := Plan{PlanSpec: PlanSpec{Topologies: []string{"clique", "cycle"}, Ns: []int{6}, BaseSeed: 3}}
	narrow := Plan{PlanSpec: PlanSpec{Topologies: []string{"cycle"}, Ns: []int{6}, BaseSeed: 3}}
	w, err := sweep(wide)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sweep(narrow)
	if err != nil {
		t.Fatal(err)
	}
	var wCycle *Record
	for i := range w {
		if w[i].Topology == "cycle" {
			wCycle = &w[i]
		}
	}
	if wCycle == nil || wCycle.Seed != n[0].Seed {
		t.Fatal("cell seed changed when the plan was reshaped")
	}
}

func TestSweepRecordsAreJSON(t *testing.T) {
	recs, err := sweep(Plan{PlanSpec: PlanSpec{Ns: []int{5}, BaseSeed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"topology":"clique"`) {
		t.Fatalf("unexpected JSON: %s", b)
	}
}

func TestSweepUnknownNamesRejectedUpfront(t *testing.T) {
	if _, err := sweep(Plan{PlanSpec: PlanSpec{Topologies: []string{"nosuch"}}}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := sweep(Plan{PlanSpec: PlanSpec{Adversaries: []string{"nosuch"}}}); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := sweep(Plan{PlanSpec: PlanSpec{Engines: []string{"warp"}}}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestSweepEngineEquivalenceOnGrid(t *testing.T) {
	// The same plan swept under both engines must produce identical
	// simulation statistics cell-for-cell — and, through a TraceObserver
	// per cell, identical per-round delivered-traffic traces (message
	// order, payloads, corrupted edge sets).
	run := func(engine string) ([]Record, map[string][]RoundTrace) {
		var mu sync.Mutex
		traces := map[string]*TraceObserver{}
		recs, err := sweep(Plan{
			PlanSpec: PlanSpec{
				Topologies:  []string{"circulant"},
				Ns:          []int{10, 14},
				Adversaries: []string{"flip", "drop"},
				Fs:          []int{1, 2},
				Engines:     []string{engine},
				BaseSeed:    11,
			},
			Observers: func(name string) []Observer {
				mu.Lock()
				defer mu.Unlock()
				traces[name] = NewTraceObserver()
				return []Observer{traces[name]}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds := map[string][]RoundTrace{}
		for _, rec := range recs {
			rounds[rec.Name] = traces[rec.Name].Rounds()
		}
		return recs, rounds
	}
	a, aTraces := run("shard")
	b, bTraces := run("step")
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Engine name and elapsed time legitimately differ; the seed, every
		// simulation statistic, and the full trace must not.
		x, y := a[i], b[i]
		xt, yt := aTraces[x.Name], bTraces[y.Name]
		if len(xt) == 0 || len(xt) != x.Rounds {
			t.Fatalf("cell %s: trace has %d rounds, stats say %d", x.Name, len(xt), x.Rounds)
		}
		if !reflect.DeepEqual(xt, yt) {
			t.Fatalf("cell %d: traces differ across engines", i)
		}
		x.Engine, y.Engine = "", ""
		x.Name, y.Name = "", ""
		x.ElapsedMS, y.ElapsedMS = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("cell %d differs across engines:\n shard %+v\n step  %+v", i, a[i], b[i])
		}
	}
}
