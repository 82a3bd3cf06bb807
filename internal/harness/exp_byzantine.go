package harness

import (
	mc "mobilecongest"

	"fmt"
	"sync"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
)

func init() {
	register(Experiment{ID: "F1", Title: "Congested-clique byzantine compiler (Theorem 1.6)", Run: runF1})
	register(Experiment{ID: "F2", Title: "Expander byzantine compiler (Theorem 1.7)", Run: runF2})
	register(Experiment{ID: "F3", Title: "Mismatch decay per iteration (Lemma 3.8)", Run: runF3})
	register(Experiment{ID: "T9", Title: "Byzantine compiler matrix (Theorem 3.5)", Run: runT9})
	register(Experiment{ID: "A1", Title: "Ablation: sparse-recovery vs l0-sampling correction", Run: runA1})
}

// runF1 sweeps clique sizes with f = n/4 mobile corruption: the round
// overhead per simulated round must stay polylogarithmic (flat in n up to
// log factors) and outputs must match the fault-free run.
func runF1(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "F1",
		Title:   "Congested-clique compiler, f = n/4",
		Claim:   "Theta(n)-mobile resilience with O~(1) overhead per simulated round",
		Columns: []string{"n", "f", "payload-rounds", "phys-rounds", "overhead/round", "correct"},
		Pass:    true,
	}
	var overheads []float64
	for _, n := range []int{8, 12, 16} {
		g := graph.Clique(n)
		sh := resilient.CliqueShared(n)
		f := n / 4
		inputs := algorithms.CliqueWeights(n, seed)
		want := algorithms.ReferenceMSTWeight(inputs)
		adv := adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)
		res, err := runScenario(resilient.Compile(algorithms.MSTClique(), resilient.Config{Mode: resilient.SparseMode, F: f, Rep: 5}),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithInputs(inputs), mc.WithShared(sh), mc.WithAdversary(adv), mc.WithMaxRounds(1<<23))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint64) != want {
				correct = false
			}
		}
		pr := algorithms.MSTRounds(n)
		overhead := float64(res.Stats.Rounds) / float64(pr)
		overheads = append(overheads, overhead)
		if !correct {
			tb.Pass = false
		}
		tb.AddRow(n, f, pr, res.Stats.Rounds, fmt.Sprintf("%.1f", overhead), correct)
	}
	// Shape: overhead must not grow linearly in n (allow 2x drift across a
	// 2x n range for the log factors).
	if overheads[len(overheads)-1] > 3*overheads[0] {
		tb.Pass = false
		tb.Notes = append(tb.Notes, "overhead grows super-logarithmically with n")
	}
	return tb, nil
}

// runF2 runs the full Theorem 1.7 pipeline: distributed weak-packing
// computation under the byzantine adversary, then the compiled payload on
// top of it.
func runF2(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "F2",
		Title:   "Expander compiler end-to-end",
		Claim:   "weak packing computed under attack; compiled payload correct",
		Columns: []string{"n", "deg", "k", "good-trees", "rounds", "correct"},
		Pass:    true,
	}
	for _, tc := range []struct{ n, d, k, f int }{
		{30, 16, 3, 1},
		{40, 20, 4, 1},
	} {
		g := resilient.RandomExpander(tc.n, tc.d, seed)
		adv := adversary.NewMobileByzantine(g, tc.f, seed, adversary.SelectRandom, adversary.CorruptFlip)
		sh, packRounds, err := resilient.ExpanderShared(g, tc.k, 12, 7, seed, adv)
		if err != nil {
			return nil, err
		}
		stats := sh.Packing.Validate(g, 12)
		adv2 := adversary.NewMobileByzantine(g, tc.f, seed+1, adversary.SelectRandom, adversary.CorruptRandomize)
		res, err := runScenario(resilient.Compile(algorithms.FloodMax(g.Diameter()), resilient.Config{Mode: resilient.SparseMode, F: tc.f, Rep: 5}),
			mc.WithGraph(g), mc.WithSeed(seed+1), mc.WithShared(sh), mc.WithAdversary(adv2), mc.WithMaxRounds(1<<23))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint64) != uint64(tc.n-1) {
				correct = false
			}
		}
		// The weak-packing pipeline needs a usable majority of good trees.
		if stats.GoodTrees*2 <= tc.k || !correct {
			tb.Pass = false
		}
		tb.AddRow(tc.n, tc.d, tc.k, stats.GoodTrees, packRounds+res.Stats.Rounds, correct)
	}
	return tb, nil
}

// runF3 traces the L0 compiler's per-iteration correction counts: Lemma 3.8
// predicts a geometric decay B_j <= 2f/2^j.
func runF3(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "F3",
		Title:   "Mismatch decay per iteration",
		Claim:   "corrections per iteration decay geometrically to zero",
		Columns: []string{"f", "iter0", "iter1", "iter2", "iter3", "final-zero"},
		Pass:    true,
	}
	for _, f := range []int{1, 2} {
		n := 16
		g := graph.Clique(n)
		sh := resilient.CliqueShared(n)
		var mu sync.Mutex
		iterCorr := make(map[int]int) // max corrections seen per iteration
		trace := func(_, iter, corrections int) {
			mu.Lock()
			if corrections > iterCorr[iter] {
				iterCorr[iter] = corrections
			}
			mu.Unlock()
		}
		adv := adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)
		res, err := runScenario(resilient.Compile(algorithms.FloodMax(2), resilient.Config{
			Mode: resilient.L0Mode, F: f, Rep: 5, Samplers: 8, Iterations: 4, TraceFn: trace,
		}),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithShared(sh), mc.WithAdversary(adv), mc.WithMaxRounds(1<<23))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint64) != uint64(n-1) {
				correct = false
			}
		}
		finalZero := iterCorr[3] == 0
		if !correct {
			tb.Pass = false
			tb.Notes = append(tb.Notes, fmt.Sprintf("f=%d: output wrong", f))
		}
		if !finalZero {
			tb.Pass = false
			tb.Notes = append(tb.Notes, fmt.Sprintf("f=%d: corrections did not reach zero", f))
		}
		tb.AddRow(f, iterCorr[0], iterCorr[1], iterCorr[2], iterCorr[3], finalZero)
	}
	return tb, nil
}

// runT9 is the compiler matrix: payloads x graphs x adversary strategies.
func runT9(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T9",
		Title:   "Byzantine compiler matrix",
		Claim:   "every payload on every topology survives every strategy at budget f",
		Columns: []string{"graph", "payload", "strategy", "f", "overhead/round", "correct"},
		Pass:    true,
	}
	type payloadCase struct {
		name   string
		rounds int
		proto  func(g *graph.Graph) congest.Protocol
		verify func(g *graph.Graph, outputs []any) bool
	}
	payloads := []payloadCase{
		{
			name: "floodmax", rounds: 0,
			proto:  func(g *graph.Graph) congest.Protocol { return algorithms.FloodMax(g.Diameter()) },
			verify: func(g *graph.Graph, outs []any) bool { return allEq(outs, uint64(g.N()-1)) },
		},
		{
			name: "tokenring", rounds: 3,
			proto: func(g *graph.Graph) congest.Protocol { return algorithms.TokenRing(3) },
			verify: func(g *graph.Graph, outs []any) bool {
				clean, err := runScenario(algorithms.TokenRing(3),
					mc.WithGraph(g), mc.WithSeed(1))
				if err != nil {
					return false
				}
				for i := range outs {
					if outs[i] != clean.Outputs[i] {
						return false
					}
				}
				return true
			},
		},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
		sh   *resilient.Shared
	}{
		{"clique(10)", graph.Clique(10), resilient.CliqueShared(10)},
		// The general graph needs k >= 4*eta trees so a permanent
		// single-edge adversary (busiest strategy) cannot own a quarter of
		// the packing: circulant(16,5) is 10-edge-connected and packs 12
		// trees at load <= 3.
		{"circulant(16,5)", graph.Circulant(16, 5), resilient.GeneralShared(graph.Circulant(16, 5), 12, 8)},
	}
	strategies := []struct {
		name string
		sel  adversary.Selector
		cor  adversary.Corruption
	}{
		{"random-flip", adversary.SelectRandom, adversary.CorruptFlip},
		{"busiest-rand", adversary.SelectBusiest, adversary.CorruptRandomize},
		{"rotate-drop", adversary.SelectRotating, adversary.CorruptDrop},
	}
	for _, gc := range graphs {
		for _, pc := range payloads {
			for _, st := range strategies {
				f := 1
				adv := adversary.NewMobileByzantine(gc.g, f, seed, st.sel, st.cor)
				proto := pc.proto(gc.g)
				res, err := runScenario(resilient.Compile(proto, resilient.Config{Mode: resilient.SparseMode, F: f, Rep: 5}),
					mc.WithGraph(gc.g), mc.WithSeed(seed), mc.WithShared(gc.sh), mc.WithAdversary(adv), mc.WithMaxRounds(1<<23))
				if err != nil {
					return nil, err
				}
				correct := pc.verify(gc.g, res.Outputs)
				if !correct {
					tb.Pass = false
				}
				clean, err := runScenario(proto,
					mc.WithGraph(gc.g), mc.WithSeed(seed), mc.WithShared(gc.sh))
				if err != nil {
					return nil, err
				}
				overhead := float64(res.Stats.Rounds) / float64(clean.Stats.Rounds)
				tb.AddRow(gc.name, pc.name, st.name, f, fmt.Sprintf("%.1f", overhead), correct)
			}
		}
	}
	return tb, nil
}

// runA1 compares the two correction modes on the same workload.
func runA1(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "A1",
		Title:   "Sparse-recovery vs l0-sampling correction",
		Claim:   "both correct; sparse costs one iteration, l0 costs O(log f) smaller sketches",
		Columns: []string{"mode", "f", "rounds", "MB-sent", "correct"},
		Pass:    true,
	}
	n := 12
	g := graph.Clique(n)
	sh := resilient.CliqueShared(n)
	for _, tc := range []struct {
		name string
		mode resilient.Mode
	}{
		{"sparse", resilient.SparseMode},
		{"l0", resilient.L0Mode},
	} {
		f := 1
		adv := adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)
		res, err := runScenario(resilient.Compile(algorithms.FloodMax(2), resilient.Config{Mode: tc.mode, F: f, Rep: 5, Samplers: 8, Iterations: 4}),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithShared(sh), mc.WithAdversary(adv), mc.WithMaxRounds(1<<23))
		if err != nil {
			return nil, err
		}
		correct := allEq(res.Outputs, uint64(n-1))
		if !correct {
			tb.Pass = false
		}
		tb.AddRow(tc.name, f, res.Stats.Rounds, fmt.Sprintf("%.1f", float64(res.Stats.Bytes)/1e6), correct)
	}
	return tb, nil
}

func allEq(outs []any, want any) bool {
	for _, o := range outs {
		if o != want {
			return false
		}
	}
	return true
}

func init() {
	register(Experiment{ID: "A3", Title: "Ablation: compiler Rep factor (rounds vs safety)", Run: runA3})
}

// runA3 sweeps the byzantine compiler's repetition knob: physical rounds
// must scale linearly in Rep while correctness holds at every setting —
// the t_RS constant of Theorem 3.2 surfacing as a tunable.
func runA3(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "A3",
		Title:   "Compiler Rep factor",
		Claim:   "rounds scale ~linearly in Rep; correctness holds at every setting",
		Columns: []string{"rep", "rounds", "correct"},
		Pass:    true,
	}
	n := 10
	g := graph.Clique(n)
	sh := resilient.CliqueShared(n)
	var rounds []int
	for _, rep := range []int{3, 5, 7} {
		adv := adversary.NewMobileByzantine(g, 1, seed, adversary.SelectRandom, adversary.CorruptFlip)
		res, err := runScenario(resilient.Compile(algorithms.FloodMax(2), resilient.Config{Mode: resilient.SparseMode, F: 1, Rep: rep}),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithShared(sh), mc.WithAdversary(adv), mc.WithMaxRounds(1<<23))
		if err != nil {
			return nil, err
		}
		correct := allEq(res.Outputs, uint64(n-1))
		if !correct {
			tb.Pass = false
		}
		rounds = append(rounds, res.Stats.Rounds)
		tb.AddRow(rep, res.Stats.Rounds, correct)
	}
	// Linear scaling check: rounds(7)/rounds(3) within [1.8, 2.8] of 7/3.
	ratio := float64(rounds[2]) / float64(rounds[0])
	if ratio < 1.5 || ratio > 3.0 {
		tb.Pass = false
		tb.Notes = append(tb.Notes, fmt.Sprintf("rounds ratio %0.2f not ~7/3", ratio))
	}
	return tb, nil
}
