package resilient

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/ecc"
	"mobilecongest/internal/graph"
)

func TestECCPlanGeometry(t *testing.T) {
	p := NewECCPlan(16, 30)
	if p.MsgBytes != 30 {
		t.Fatalf("MsgBytes = %d, want 30", p.MsgBytes)
	}
	code, err := p.Code()
	if err != nil {
		t.Fatal(err)
	}
	// ell <= k*w/2 must hold so at least k/4 bad trees are tolerated.
	if 2*code.K() > code.N() {
		t.Fatalf("code rate too high: n=%d k=%d", code.N(), code.K())
	}
	if p.MsgBytes%2 != 0 {
		t.Fatal("MsgBytes must be even")
	}
	podd := NewECCPlan(8, 7)
	if podd.MsgBytes%2 != 0 {
		t.Fatal("odd maxBytes not rounded up")
	}
}

// TestECCPlanCodeShared runs many goroutines that fetch codes for equal and
// unequal plans and use them for encode/decode round trips, one clean and
// one with K/4 bad shares per worker and plan. Equal plans must share one
// *ecc.Code, unequal ones must not, and every round trip must return the
// message (run it under -race). The first workers each decode through
// their own memo, so every word they draw is decoded on the shared code at
// once; the rest repeat their seeds two times over through one shared
// memo, so equal words are derived by several workers at once or are memo
// hits.
func TestECCPlanCodeShared(t *testing.T) {
	// NewECCPlan(16, 157) rounds up to the plan of NewECCPlan(16, 158), the
	// hardened-clique f=2 correction geometry [160,79].
	plans := []ECCPlan{NewECCPlan(16, 8), NewECCPlan(16, 158), NewECCPlan(16, 157), NewECCPlan(12, 26), NewECCPlan(8, 7)}
	const seeds, repeats, rounds = 8, 2, 2
	const workers = seeds * (1 + repeats)
	got := make([][]*ecc.Code, workers)
	shared := new(congest.Memo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := w % seeds
			rng := rand.New(rand.NewSource(int64(seed)))
			memo := shared
			if w < seeds {
				memo = new(congest.Memo)
			}
			got[w] = make([]*ecc.Code, len(plans))
			for r := 0; r < rounds; r++ {
				for i, p := range plans {
					code, err := p.Code()
					if err != nil {
						t.Error(err)
						return
					}
					if r == 0 {
						got[w][i] = code
					} else if code != got[w][i] {
						t.Errorf("worker %d: plan %+v returned a second code", w, p)
					}
					msg := make([]byte, p.MsgBytes)
					rng.Read(msg)
					shares, err := p.encodeShares(msg)
					if err != nil {
						t.Error(err)
						return
					}
					if (seed+r)%2 == 1 {
						for _, j := range rng.Perm(p.K)[:p.K/4] {
							shares[j] = []byte{byte(rng.Intn(256))}
						}
					}
					dec, ok := p.decodeShares(memo, shares)
					if !ok || !bytes.Equal(dec, msg) {
						t.Errorf("worker %d: plan %+v round trip failed (ok=%v)", w, p, ok)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for i := range plans {
			if got[w][i] != got[0][i] {
				t.Fatalf("plan %+v: workers 0 and %d got different codes", plans[i], w)
			}
		}
	}
	for i := range plans {
		for j := range plans {
			if same := got[0][i] == got[0][j]; same != (plans[i] == plans[j]) {
				t.Fatalf("plans %+v and %+v: shared code %v, equal plans %v", plans[i], plans[j], same, plans[i] == plans[j])
			}
		}
	}
}

func TestECCShareRoundTrip(t *testing.T) {
	p := NewECCPlan(12, 26)
	msg := []byte("dominating-mismatch-list!!")
	shares, err := p.encodeShares(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 12 {
		t.Fatalf("%d shares, want 12", len(shares))
	}
	// Clean decode.
	got, ok := p.decodeShares(new(congest.Memo), shares)
	if !ok {
		t.Fatal("clean decode failed")
	}
	if string(got[:len(msg)]) != string(msg) {
		t.Fatalf("decoded %q", got)
	}
	// Corrupt up to k/4 = 3 whole shares.
	shares[1] = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	shares[5] = nil
	shares[9] = []byte{1, 2, 3}
	got, ok = p.decodeShares(new(congest.Memo), shares)
	if !ok {
		t.Fatal("decode with 3 bad shares failed")
	}
	if string(got[:len(msg)]) != string(msg) {
		t.Fatalf("decoded %q after corruption", got)
	}
}

// runCompiled runs a compiled payload on g and returns outputs.
func runCompiled(t *testing.T, g *graph.Graph, sh *Shared, adv congest.Adversary, seed int64, inputs [][]byte, payload congest.Protocol, cfg Config) *congest.Result {
	t.Helper()
	res, err := congest.Run(congest.Config{
		Graph:     g,
		Seed:      seed,
		Adversary: adv,
		Inputs:    inputs,
		Shared:    sh,
		MaxRounds: 1 << 22,
	}, Compile(payload, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSparseCompilerFaultFree(t *testing.T) {
	n := 8
	g := graph.Clique(n)
	sh := CliqueShared(n)
	res := runCompiled(t, g, sh, nil, 1, nil, algorithms.FloodMax(2), Config{Mode: SparseMode, F: 1, Rep: 3})
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(n-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestSparseCompilerCliqueUnderMobileByzantine(t *testing.T) {
	n := 12
	g := graph.Clique(n)
	sh := CliqueShared(n)
	for _, tc := range []struct {
		name string
		sel  adversary.Selector
		cor  adversary.Corruption
	}{
		{"random-flip", adversary.SelectRandom, adversary.CorruptFlip},
		{"random-randomize", adversary.SelectRandom, adversary.CorruptRandomize},
		{"busiest-flip", adversary.SelectBusiest, adversary.CorruptFlip},
		{"rotating-drop", adversary.SelectRotating, adversary.CorruptDrop},
		{"incident-inject", adversary.SelectIncident(graph.NodeID(n - 1)), adversary.CorruptInject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := adversary.NewMobileByzantine(g, 2, 7, tc.sel, tc.cor)
			res := runCompiled(t, g, sh, adv, 2, nil, algorithms.FloodMax(2), Config{Mode: SparseMode, F: 2, Rep: 5})
			for i, o := range res.Outputs {
				if o.(uint64) != uint64(n-1) {
					t.Fatalf("node %d output %v under %s", i, o, tc.name)
				}
			}
		})
	}
}

func TestSparseCompilerTokenRing(t *testing.T) {
	// TokenRing is order-sensitive: any uncorrected corruption changes the
	// trace. Compare against the fault-free trace.
	n := 10
	g := graph.Clique(n)
	sh := CliqueShared(n)
	clean, err := congest.Run(congest.Config{Graph: g, Seed: 3}, algorithms.TokenRing(4))
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewMobileByzantine(g, 2, 11, adversary.SelectRandom, adversary.CorruptRandomize)
	res := runCompiled(t, g, sh, adv, 3, nil, algorithms.TokenRing(4), Config{Mode: SparseMode, F: 2, Rep: 5})
	for i := range res.Outputs {
		if res.Outputs[i] != clean.Outputs[i] {
			t.Fatalf("node %d trace diverged: %v vs %v", i, res.Outputs[i], clean.Outputs[i])
		}
	}
}

func TestSparseCompilerMSTClique(t *testing.T) {
	n := 8
	g := graph.Clique(n)
	sh := CliqueShared(n)
	inputs := algorithms.CliqueWeights(n, 5)
	want := algorithms.ReferenceMSTWeight(inputs)
	adv := adversary.NewMobileByzantine(g, 1, 13, adversary.SelectBusiest, adversary.CorruptFlip)
	res := runCompiled(t, g, sh, adv, 4, inputs, algorithms.MSTClique(), Config{Mode: SparseMode, F: 1, Rep: 5})
	for i, o := range res.Outputs {
		if o.(uint64) != want {
			t.Fatalf("node %d MST weight %v, want %d", i, o, want)
		}
	}
}

func TestSparseCompilerGeneralGraph(t *testing.T) {
	// Circulant(14,3): 6-edge-connected; pack 6 trees, defend f=1.
	g := graph.Circulant(14, 3)
	sh := GeneralShared(g, 6, 6)
	if sh.Packing.K() < 4 {
		t.Fatalf("packed only %d trees", sh.Packing.K())
	}
	adv := adversary.NewMobileByzantine(g, 1, 17, adversary.SelectRandom, adversary.CorruptRandomize)
	res := runCompiled(t, g, sh, adv, 5, nil, algorithms.FloodMax(g.Diameter()), Config{Mode: SparseMode, F: 1, Rep: 5})
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(g.N()-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestL0CompilerFaultFree(t *testing.T) {
	n := 10
	g := graph.Clique(n)
	sh := CliqueShared(n)
	res := runCompiled(t, g, sh, nil, 6, nil, algorithms.FloodMax(2), Config{Mode: L0Mode, F: 1, Rep: 3, Samplers: 6, Iterations: 3})
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(n-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestL0CompilerUnderMobileByzantine(t *testing.T) {
	n := 16
	g := graph.Clique(n)
	sh := CliqueShared(n)
	adv := adversary.NewMobileByzantine(g, 1, 23, adversary.SelectRandom, adversary.CorruptFlip)
	res := runCompiled(t, g, sh, adv, 7, nil, algorithms.FloodMax(2), Config{Mode: L0Mode, F: 1, Rep: 5, Samplers: 8, Iterations: 5})
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(n-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestCompilerRejectsOversizedPayload(t *testing.T) {
	sh := CliqueShared(6)
	big := func(rt congest.Runtime) {
		out := rt.OutBuf()
		out[0] = make(congest.Msg, 9)
		rt.ExchangePorts(out)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "payload message to 1 has 9 bytes, max 8") {
			t.Fatalf("oversized payload: panic %q, want the size rejection", msg)
		}
	}()
	// The engine does not recover arbitrary panics, so call the compiled
	// protocol directly on a stub runtime.
	Compile(big, Config{F: 1})(stubRuntime{sh: sh})
}

// stubRuntime is node 0 of the 6-clique with just the methods the compiler
// and the wrapped payload call before the payload-size check, and the port
// lookup applyCorrections makes; the embedded nil Runtime panics on
// anything else.
type stubRuntime struct {
	congest.Runtime
	sh *Shared
}

func (s stubRuntime) ID() graph.NodeID            { return 0 }
func (s stubRuntime) N() int                      { return 6 }
func (s stubRuntime) Memo() *congest.Memo         { return new(congest.Memo) }
func (s stubRuntime) Degree() int                 { return 5 }
func (s stubRuntime) Neighbor(p int) graph.NodeID { return graph.NodeID(p + 1) }
func (s stubRuntime) Port(v graph.NodeID) int     { return int(v) - 1 }
func (s stubRuntime) Shared() any                 { return s.sh }

// TestApplyCorrections checks how node 0 of the 6-clique applies a
// broadcast correction list to its estimates (ports 0-4 are nodes 1-5): a
// plus entry beats a minus entry for the same incoming edge, a minus entry
// deletes an estimate only when it equals it, and an entry for an edge that
// does not come into node 0, or with an edge index past the graph's, is
// ignored.
func TestApplyCorrections(t *testing.T) {
	sh := CliqueShared(6)
	g := sh.G
	s := &simulator{TreeNode: TreeNode{RT: stubRuntime{sh: sh}}, sh: sh, sc: &nodeScratch{settled: make([]bool, 5)}}
	msg := func(data uint64, l int) PackedMsg { return PackedMsg{Present: true, Data: data, Length: l} }
	s.sc.est = []PackedMsg{msg(7, 1), msg(5, 1), msg(5, 1), msg(5, 1), msg(4, 1)}
	s.applyCorrections([]correction{
		{idx: DirIndex(g, 1, 0, 1), data: 9, plus: true}, // port 0: the plus entry wins over both minus entries
		{idx: DirIndex(g, 1, 0, 1), data: 9, plus: false},
		{idx: DirIndex(g, 1, 0, 1), data: 7, plus: false},
		{idx: DirIndex(g, 2, 0, 1), data: 5, plus: false},       // port 1: equal, deleted
		{idx: DirIndex(g, 3, 0, 1), data: 6, plus: false},       // port 2: another value, kept
		{idx: DirIndex(g, 4, 0, 2), data: 5, plus: false},       // port 3: another length, kept
		{idx: DirIndex(g, 0, 5, 1), data: 4, plus: false},       // node 0's outgoing edge to port 4
		{idx: DirIndex(g, 2, 3, 1), data: 8, plus: true},        // an edge between other nodes
		{idx: uint32(g.M())<<5 | 1<<1 | 1, data: 3, plus: true}, // no such edge
	})
	want := []PackedMsg{msg(9, 1), {}, msg(5, 1), msg(5, 1), msg(4, 1)}
	for p := range want {
		if s.sc.est[p] != want[p] {
			t.Errorf("port %d: estimate %+v, want %+v", p, s.sc.est[p], want[p])
		}
	}
}
