// Benchmarks regenerating every experiment table of harness.All() — one
// testing.B benchmark per table/figure. Each iteration runs the complete
// experiment (all its simulation runs) and fails the benchmark if the
// measured shape stops matching the paper's claim, so
// `go test -bench=. -benchmem` doubles as the reproduction gate.
// The benchmarks live in the external test package: internal/harness imports
// the root package for the Scenario API, so an in-package test file would
// create an import cycle.
package mobilecongest_test

import (
	"context"
	"fmt"
	"testing"

	mc "mobilecongest"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/harness"
	"mobilecongest/internal/resilient"
)

// BenchmarkRun races the execution engines head-to-head on raw simulation
// throughput: FloodMax (every node talks to every neighbour every round) over
// clique, circulant, and expander topologies, fault-free and under mobile
// adversaries (byzantine flip and eavesdropper). This isolates engine and
// adversary-boundary overhead — coroutine switches, the goroutine oracle's
// channel handoffs, shard barriers, and per-round traffic materialization —
// from experiment logic. The large
// adversarial cases (circulant1024-flip, expander512-eavesdrop) stress the
// slot-native adversary path at scale.
func BenchmarkRun(b *testing.B) {
	cases := []struct {
		name   string
		g      *mc.Graph
		rounds int
		adv    string
	}{
		{"clique32", mc.NewClique(32), 8, "none"},
		{"clique64", mc.NewClique(64), 8, "none"},
		{"circulant128", mc.NewCirculant(128, 2), 32, "none"},
		{"circulant256", mc.NewCirculant(256, 4), 16, "none"},
		{"circulant1024", mc.NewCirculant(1024, 4), 16, "none"},
		{"expander512", resilient.RandomExpander(512, 8, 11), 16, "none"},
		// The large-n fault-free tier is where the multi-shard engine's
		// parallel-for earns its keep (step, its single-shard form, runs
		// every node on one goroutine, and the goroutine oracle pays a
		// goroutine per node); modest round counts keep -benchtime=1x
		// smoke runs fast. It is also the tier most sensitive to per-message
		// heap traffic: moving round slots onto packed arena slabs (plus lazy
		// per-node RNG construction) cut warmed step-engine B/op here by
		// 66-92% vs the per-Msg-slice baseline (circulant16384 121MB ->
		// 12.4MB, circulant65536 485MB -> 166MB, expander8192 60MB -> 5.0MB).
		{"circulant16384", mc.NewCirculant(16384, 4), 8, "none"},
		{"circulant65536", mc.NewCirculant(65536, 4), 8, "none"},
		{"expander8192", resilient.RandomExpander(8192, 8, 11), 8, "none"},
		{"clique32-flip", mc.NewClique(32), 8, "flip"},
		{"clique64-flip", mc.NewClique(64), 8, "flip"},
		{"circulant128-flip", mc.NewCirculant(128, 2), 32, "flip"},
		{"circulant256-flip", mc.NewCirculant(256, 4), 16, "flip"},
		{"circulant1024-flip", mc.NewCirculant(1024, 4), 16, "flip"},
		{"expander512-eavesdrop", resilient.RandomExpander(512, 8, 11), 16, "eavesdrop"},
	}
	for _, engine := range mc.EngineNames() {
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%s", engine, c.name), func(b *testing.B) {
				sc := mc.NewScenario(
					mc.WithGraph(c.g),
					mc.WithProtocol(algorithms.FloodMax(c.rounds)),
					mc.WithAdversaryName(c.adv, 2),
					mc.WithSeed(1),
					mc.WithEngineName(engine),
				)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProtocol exercises the protocol-registry axis on the heavier
// payload fleet: BFS on circulant256 (a long-diameter flood with per-port
// state), Borůvka MST on clique64 (MSTClique is a congested-clique
// protocol, so its cell runs on the clique family — n*n-weight inputs,
// all-to-all announcements every round), the Theorem 1.2 compiler
// (secure-broadcast on circulant128 under an f=2 mobile eavesdropper,
// whose key phase extracts 17 keys from 85 exchanged words per
// edge-direction), and the Theorem 1.6 compiler (hardened-clique on
// clique16 under an f=2 flip adversary, whose seed, sketch and correction
// tree protocols each run 30 rounds of rsim frames per payload round).
// Protocols are resolved by registry name, so this also pins the
// WithProtocolName build path's overhead.
func BenchmarkProtocol(b *testing.B) {
	cases := []struct {
		proto, topo string
		n, k        int
		adv         string
		f           int
	}{
		{"bfs", "circulant", 256, 4, "none", 0},
		{"mstclique", "clique", 64, 0, "none", 0},
		{"secure-broadcast", "circulant", 128, 4, "eavesdrop", 2},
		{"hardened-clique", "clique", 16, 0, "flip", 2},
	}
	for _, engine := range mc.EngineNames() {
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%s-%s%d", engine, c.proto, c.topo, c.n), func(b *testing.B) {
				sc := mc.NewScenario(
					mc.WithTopology(c.topo, c.n, c.k),
					mc.WithProtocolName(c.proto),
					mc.WithAdversaryName(c.adv, c.f),
					mc.WithSeed(1),
					mc.WithEngineName(engine),
				)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanOverhead pins the per-cell scheduling cost of the sweep
// substrate: 64 tiny cells (clique4, 2-round floodmax) so the scenario
// runs are nearly free and the expansion + dispatch + record plumbing
// dominates; the numbers guard the per-cell overhead of the plan machinery.
func BenchmarkPlanOverhead(b *testing.B) {
	const cells = 64
	b.Run("plan", func(b *testing.B) {
		plan := mc.Plan{
			Axes: []mc.Axis{
				mc.TopologyAxis("clique"),
				mc.NAxis(4),
				mc.RepsAxis(cells),
			},
			BaseSeed: 1,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, err := plan.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != cells {
				b.Fatalf("got %d records", len(recs))
			}
		}
	})
}

// BenchmarkPlanCached measures the result cache on the BenchmarkPlanOverhead
// grid: "cold" runs every iteration against a fresh cache (full compute plus
// insertion), "warm" replays a prefilled one — cache consult at expansion,
// no graph, Scenario, or RunContext per cell. The warm leg is the headline:
// it must be at least an order of magnitude under cold.
func BenchmarkPlanCached(b *testing.B) {
	const cells = 64
	mkPlan := func(cache *mc.ResultCache) mc.Plan {
		return mc.Plan{
			Axes: []mc.Axis{
				mc.TopologyAxis("clique"),
				mc.NAxis(4),
				mc.RepsAxis(cells),
			},
			BaseSeed: 1,
			Cache:    cache,
		}
	}
	run := func(b *testing.B, plan mc.Plan) {
		recs, err := plan.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != cells {
			b.Fatalf("got %d records", len(recs))
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, mkPlan(mc.NewResultCache(0)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := mc.NewResultCache(0)
		run(b, mkPlan(cache)) // prefill
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, mkPlan(cache))
		}
	})
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(int64(42 + i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !tb.Pass {
			b.Fatalf("%s failed its claim:\n%s", id, tb.Render())
		}
	}
}

// BenchmarkT1StaticToMobile regenerates Table T1 (Theorem 1.2): the
// static-to-mobile security compiler's (r', f') trade-off.
func BenchmarkT1StaticToMobile(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkT2Extraction regenerates Table T2 (Theorem 2.1): the algebraic
// perfect-security certificate of the key extractor.
func BenchmarkT2Extraction(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkT3Unicast regenerates Table T3 (Lemma A.3): mobile-secure
// unicast rounds and congestion.
func BenchmarkT3Unicast(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkT4Broadcast regenerates Table T4 (Theorem A.4 variant):
// mobile-secure broadcast with the k > f*eta share margin.
func BenchmarkT4Broadcast(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkT5CongestionSensitive regenerates Table T5 (Theorem 1.3): the
// congestion-sensitive compiler with traffic hiding.
func BenchmarkT5CongestionSensitive(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkT6CycleCover regenerates Table T6 (Theorems 1.4/5.5): the FT
// cycle-cover compiler's exact round formula.
func BenchmarkT6CycleCover(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkT7TreePacking regenerates Table T7 (Lemma 3.10 / Theorem C.2):
// tree packing quality across graph families.
func BenchmarkT7TreePacking(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkT8Sketches regenerates Table T8 (Theorem 3.4): l0-sampling
// uniformity and sparse-recovery exactness.
func BenchmarkT8Sketches(b *testing.B) { benchExperiment(b, "T8") }

// BenchmarkT9ByzantineCompiler regenerates Table T9 (Theorem 3.5): the
// compiler matrix over payloads, topologies, and adversary strategies.
func BenchmarkT9ByzantineCompiler(b *testing.B) { benchExperiment(b, "T9") }

// BenchmarkT10DistributedPacking regenerates Table T10 (Appendix C /
// Corollary 3.9(ii)): the distributed packing preprocessing pipeline.
func BenchmarkT10DistributedPacking(b *testing.B) { benchExperiment(b, "T10") }

// BenchmarkT11Indistinguishability regenerates Table T11 (Theorem 1.2,
// statistical side): chi-square view comparison with a negative control.
func BenchmarkT11Indistinguishability(b *testing.B) { benchExperiment(b, "T11") }

// BenchmarkF1Clique regenerates Figure F1 (Theorem 1.6): clique compiler
// overhead versus n at f = n/4.
func BenchmarkF1Clique(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkF2Expander regenerates Figure F2 (Theorem 1.7): the end-to-end
// expander pipeline.
func BenchmarkF2Expander(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3MismatchDecay regenerates Figure F3 (Lemma 3.8): geometric
// decay of per-iteration corrections.
func BenchmarkF3MismatchDecay(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkF4Rewind regenerates Figure F4 (Theorem 4.1): transcript growth
// and rewinds under bursty round-error-rate adversaries.
func BenchmarkF4Rewind(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkF5RSThreshold regenerates Figure F5 (Theorem 3.2 contract): the
// RS-substitute's corruption threshold.
func BenchmarkF5RSThreshold(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkA1SketchAblation regenerates Table A1: sparse-recovery versus
// l0-sampling correction cost.
func BenchmarkA1SketchAblation(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkA2Repetition regenerates Table A2: the rsim repetition factor's
// reliability/cost trade.
func BenchmarkA2Repetition(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3RepScaling regenerates Table A3: compiler rounds scale linearly
// in the Rep knob with correctness at every setting.
func BenchmarkA3RepScaling(b *testing.B) { benchExperiment(b, "A3") }
