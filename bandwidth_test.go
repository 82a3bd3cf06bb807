package mobilecongest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
)

// The root-API surface of the bandwidth budget: WithBandwidth on scenarios,
// the BandwidthAxis on plans (labels, records, and seed invariance), and the
// violation error surfacing in sweep records.

// TestScenarioWithBandwidth: a generous budget passes, a binding one fails
// with congest.ErrBandwidthExceeded, and the default enforces nothing.
func TestScenarioWithBandwidth(t *testing.T) {
	base := []ScenarioOption{
		WithTopology("cycle", 8, 0),
		WithProtocol(algorithms.FloodMax(3)), // 64-bit payloads
		WithSeed(1),
	}
	if _, err := NewScenario(append(base, WithBandwidth(64))...).Run(); err != nil {
		t.Fatalf("at-budget scenario failed: %v", err)
	}
	if _, err := NewScenario(base...).Run(); err != nil {
		t.Fatalf("default (unlimited) scenario failed: %v", err)
	}
	_, err := NewScenario(append(base, WithBandwidth(32))...).Run()
	if !errors.Is(err, congest.ErrBandwidthExceeded) {
		t.Fatalf("binding budget: err = %v, want congest.ErrBandwidthExceeded", err)
	}
}

// TestPlanBandwidthAxis: the axis labels cells "bw=N" without perturbing
// seeds (budgets change enforcement, never the randomness), fills
// Record.Bandwidth, and carries violations as per-cell record errors rather
// than aborting the sweep.
func TestPlanBandwidthAxis(t *testing.T) {
	// The default workload floods 64-bit payloads.
	mk := func(axes ...Axis) []Record {
		t.Helper()
		recs, err := Plan{Axes: axes, BaseSeed: 42}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	base := []Axis{
		TopologyAxis("cycle"), NAxis(8), KAxis(0),
		AdversaryAxis("none"), FAxis(1), EngineAxis("step"),
	}
	const reps = 2
	plain := mk(append(base, RepsAxis(reps))...)
	budgets := []int{0, 64, 32}
	swept := mk(append(base, BandwidthAxis(budgets...), RepsAxis(reps))...)

	if len(swept) != len(budgets)*len(plain) {
		t.Fatalf("bandwidth sweep produced %d records, want %d", len(swept), len(budgets)*len(plain))
	}
	for i, r := range swept {
		bw := budgets[i/reps] // reps iterate innermost
		twin := plain[i%reps] // the same cell without the bandwidth axis
		if r.Bandwidth != bw {
			t.Fatalf("record %d: Bandwidth = %d, want %d (name %s)", i, r.Bandwidth, bw, r.Name)
		}
		if want := fmt.Sprintf("bw=%d", bw); !strings.Contains(r.Name, want) {
			t.Fatalf("record %d: name %q missing %q label", i, r.Name, want)
		}
		// Seed invariance: the budget must not perturb the cell's randomness.
		if r.Seed != twin.Seed {
			t.Fatalf("record %d: seed %d != unswept seed %d — bandwidth leaked into seeding",
				i, r.Seed, twin.Seed)
		}
		if bw == 32 { // 64-bit payloads violate a 32-bit budget
			if !strings.Contains(r.Error, "bandwidth exceeded") {
				t.Fatalf("record %d (bw=32): error %q, want a bandwidth violation", i, r.Error)
			}
			continue
		}
		if r.Error != "" {
			t.Fatalf("record %d (bw=%d): unexpected error %q", i, bw, r.Error)
		}
		if r.Rounds != twin.Rounds || r.Messages != twin.Messages || r.Bytes != twin.Bytes {
			t.Fatalf("record %d (bw=%d): stats diverge from the unswept cell", i, bw)
		}
	}
}
