package harness

import (
	mc "mobilecongest"

	"fmt"
	"sort"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/extract"
	"mobilecongest/internal/gf"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/secure"
)

var expField = gf.NewField16()

func init() {
	register(Experiment{ID: "T1", Title: "Static-to-mobile security compiler (Theorem 1.2)", Run: runT1})
	register(Experiment{ID: "T2", Title: "Bit-extraction resilience certificate (Theorem 2.1)", Run: runT2})
	register(Experiment{ID: "T3", Title: "Mobile-secure unicast (Lemma A.3)", Run: runT3})
	register(Experiment{ID: "T4", Title: "Mobile-secure broadcast (Theorem A.4 variant)", Run: runT4})
	register(Experiment{ID: "T5", Title: "Congestion-sensitive secure compiler (Theorem 1.3)", Run: runT5})
}

// runT1 sweeps the key-phase slack t and reports (r', f') against the
// theorem's formulas, plus end-to-end correctness of the compiled payload.
func runT1(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T1",
		Title:   "Static-to-mobile security compiler",
		Claim:   "r' = 2r+t; f' = Theta(f*(t+1)/(r+t)); t >= 2fr gives f' = f; compiled run correct",
		Columns: []string{"r", "t", "f", "r'", "f'", "measured-rounds", "correct"},
		Pass:    true,
	}
	g := graph.Grid(3, 4)
	r := g.Diameter()
	f := 2
	for _, t := range []int{1, r, secure.SlackFor(r, f), 2 * secure.SlackFor(r, f)} {
		rp, fp := secure.MobileParams(r, t, f)
		res, err := runScenario(secure.StaticToMobile(algorithms.Broadcast(0, 31337, r), r, t),
			mc.WithGraph(g), mc.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint64) != 31337 {
				correct = false
			}
		}
		if !correct || res.Stats.Rounds != rp {
			tb.Pass = false
		}
		if t >= secure.SlackFor(r, f) && fp < f {
			tb.Pass = false
			tb.Notes = append(tb.Notes, fmt.Sprintf("t=%d >= 2fr but f'=%d < f=%d", t, fp, f))
		}
		tb.AddRow(r, t, f, rp, fp, res.Stats.Rounds, correct)
	}
	return tb, nil
}

// runT2 certifies perfect security algebraically: over random mobile
// schedules within budget f', every edge observed at most t times keeps a
// full-rank extractor, and at most f edges exceed t.
func runT2(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T2",
		Title:   "Bit-extraction resilience certificate",
		Claim:   "keys on edges observed <= t rounds stay uniform; at most f edges exceed t",
		Columns: []string{"graph", "f'", "trials", "rank-failures", "over-t-violations"},
		Pass:    true,
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"petersen", graph.Petersen()},
		{"circulant(12,2)", graph.Circulant(12, 2)},
	} {
		r, tSlack, f := 6, 12, 2
		_, fPrime := secure.MobileParams(r, tSlack, f)
		ell := r + tSlack
		ex, err := extract.New(expField, ell, r)
		if err != nil {
			return nil, err
		}
		rankFail, overT := 0, 0
		const trials = 40
		for i := 0; i < trials; i++ {
			eve := adversary.NewMobileEavesdropper(tc.g, fPrime, seed+int64(i))
			obs := make(map[graph.Edge][]int)
			for round := 0; round < ell; round++ {
				for _, e := range eve.ControlledEdges(round) {
					obs[e] = append(obs[e], round)
				}
			}
			// Verify in sorted edge order so a verification error surfaces
			// the same edge on every run (map order is randomized).
			edges := make([]graph.Edge, 0, len(obs))
			for e := range obs {
				edges = append(edges, e)
			}
			sort.Slice(edges, func(a, b int) bool {
				if edges[a].U != edges[b].U {
					return edges[a].U < edges[b].U
				}
				return edges[a].V < edges[b].V
			})
			bad := 0
			for _, e := range edges {
				rounds := obs[e]
				if len(rounds) > tSlack {
					bad++
					continue
				}
				ok, err := ex.VerifyResilience(rounds)
				if err != nil {
					return nil, err
				}
				if !ok {
					rankFail++
				}
			}
			if bad > f {
				overT++
			}
		}
		if rankFail > 0 || overT > 0 {
			tb.Pass = false
		}
		tb.AddRow(tc.name, fPrime, trials, rankFail, overT)
	}
	return tb, nil
}

// runT3 measures unicast round complexity against the O(D) claim and checks
// the one-message-per-edge lightness plus correctness under mobile
// eavesdroppers.
func runT3(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T3",
		Title:   "Mobile-secure unicast",
		Claim:   "O(D) rounds, congestion 2, correct under f-mobile eavesdroppers",
		Columns: []string{"graph", "D", "rounds", "congestion", "correct"},
		Pass:    true,
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{"cycle(16)", graph.Cycle(16), 0, 8},
		{"grid(4x4)", graph.Grid(4, 4), 0, 15},
		{"circulant(20,2)", graph.Circulant(20, 2), 1, 11},
		{"hypercube(4)", graph.Hypercube(4), 0, 15},
	} {
		sh := secure.NewUnicastShared(tc.g, tc.d)
		inputs := make([][]byte, tc.g.N())
		inputs[tc.s] = congest.PutU64(nil, 0xD00D)
		eve := adversary.NewMobileEavesdropper(tc.g, 2, seed)
		res, err := runScenario(secure.MobileSecureUnicast(tc.s),
			mc.WithGraph(tc.g), mc.WithSeed(seed), mc.WithInputs(inputs), mc.WithShared(sh), mc.WithAdversary(eve))
		if err != nil {
			return nil, err
		}
		got := res.Outputs[tc.d].(secure.UnicastResult).Secret
		correct := got == 0xD00D
		d := tc.g.Diameter()
		// O(D): rounds <= D+2 by construction.
		if !correct || res.Stats.Rounds > d+2 || res.Stats.MaxEdgeCongestion > 2 {
			tb.Pass = false
		}
		tb.AddRow(tc.name, d, res.Stats.Rounds, res.Stats.MaxEdgeCongestion, correct)
	}
	return tb, nil
}

// runT4 sweeps f for the mobile-secure broadcast and confirms the k > f*eta
// secrecy margin plus correctness.
func runT4(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T4",
		Title:   "Mobile-secure broadcast",
		Claim:   "correct delivery; share margin k > f*eta guarantees perfect secrecy",
		Columns: []string{"graph", "f", "k", "eta", "margin-ok", "rounds", "correct"},
		Pass:    true,
	}
	for _, f := range []int{1, 2} {
		g := graph.Circulant(14, 3)
		source := graph.NodeID(13)
		k := secure.MinSharesFor(f, 3) // provision for eta up to 3
		sh := secure.NewBroadcastShared(g, source, k, 8)
		eta := sh.Packing.Load()
		inputs := make([][]byte, g.N())
		inputs[source] = congest.PutU64(nil, 0xCAFE)
		eve := adversary.NewMobileEavesdropper(g, f, seed)
		res, err := runScenario(secure.MobileSecureBroadcast(f),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithInputs(inputs), mc.WithShared(sh), mc.WithAdversary(eve))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint64) != 0xCAFE {
				correct = false
			}
		}
		marginOK := sh.Packing.K() > f*eta
		if !correct || !marginOK {
			tb.Pass = false
		}
		tb.AddRow("circulant(14,3)", f, sh.Packing.K(), eta, marginOK, res.Stats.Rounds, correct)
	}
	return tb, nil
}

// runT5 sweeps the payload congestion and confirms correctness plus the
// traffic-hiding property (every edge busy every Step-3 round).
func runT5(seed int64) (*Table, error) {
	tb := &Table{
		ID:      "T5",
		Title:   "Congestion-sensitive secure compiler",
		Claim:   "correct; all edges carry fixed-size ciphertext every round (pattern hiding)",
		Columns: []string{"r", "cong", "rounds", "msgs", "full-traffic", "correct"},
		Pass:    true,
	}
	g := graph.Circulant(10, 2)
	root := graph.NodeID(9)
	sh := secure.NewBroadcastShared(g, root, 4, 5)
	for _, r := range []int{3, 5} {
		rr := r
		payload := func(rt congest.Runtime) {
			var have uint16
			if rt.ID() == 0 {
				have = 0xBEEF
			}
			for i := 0; i < rr; i++ {
				out := rt.OutBuf()
				if have != 0 {
					m := congest.Msg{byte(have >> 8), byte(have)}
					for p := range out {
						out[p] = m
					}
				}
				in := rt.ExchangePorts(out)
				for _, m := range in {
					if len(m) == 2 && have == 0 {
						have = uint16(m[0])<<8 | uint16(m[1])
					}
				}
			}
			rt.SetOutput(have)
		}
		res, err := runScenario(secure.CompileCongestionSensitive(payload, secure.CSConfig{R: rr, F: 1, Cong: rr}),
			mc.WithGraph(g), mc.WithSeed(seed), mc.WithShared(sh))
		if err != nil {
			return nil, err
		}
		correct := true
		for _, o := range res.Outputs {
			if o.(uint16) != 0xBEEF {
				correct = false
			}
		}
		fullTraffic := res.Stats.Messages >= rr*2*g.M()
		if !correct || !fullTraffic {
			tb.Pass = false
		}
		tb.AddRow(rr, rr, res.Stats.Rounds, res.Stats.Messages, fullTraffic, correct)
	}
	return tb, nil
}
