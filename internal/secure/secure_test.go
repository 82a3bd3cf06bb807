package secure

import (
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/extract"
	"mobilecongest/internal/graph"
)

func TestMobileParams(t *testing.T) {
	// Theorem 1.2: r'=2r+t, f' = floor(f(t+1)/(r+t)); t>=2fr gives f'=f.
	r, f := 10, 3
	rp, fp := MobileParams(r, 2*f*r, f)
	if rp != 2*r+2*f*r {
		t.Fatalf("r' = %d", rp)
	}
	if fp != f {
		t.Fatalf("f' = %d, want %d", fp, f)
	}
	// Constant t trades down f', but never below the theorem's printed
	// floor(f(t+1)/(r+t)) bound, and the bad-edge count stays within f.
	_, fp = MobileParams(r, r, f)
	if fp < f*(r+1)/(2*r) {
		t.Fatalf("f' = %d below the theorem bound", fp)
	}
	if bad := fp * (r + r) / (r + 1); bad > f {
		t.Fatalf("f'=%d yields %d bad edges > f=%d", fp, bad, f)
	}
}

func TestStaticToMobileCorrectness(t *testing.T) {
	g := graph.Grid(3, 3)
	r := g.Diameter()
	res, err := congest.Run(congest.Config{Graph: g, Seed: 1},
		StaticToMobile(algorithms.Broadcast(0, 4242, r), r, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != 4242 {
			t.Fatalf("node %d got %v", i, o)
		}
	}
	if want := (r + 4) + r; res.Stats.Rounds != want {
		t.Fatalf("rounds = %d, want %d (= 2r+t)", res.Stats.Rounds, want)
	}
}

// TestStaticToMobileKeyUniformity is the proof-structure certificate of
// Theorem 1.2: run the compiler under a mobile eavesdropper with budget f',
// then partition edges by how many phase-1 rounds were observed. At most f
// edges may exceed the threshold t, and every other edge's key extractor
// must stay full-rank given exactly the observed rounds.
func TestStaticToMobileKeyUniformity(t *testing.T) {
	g := graph.Petersen()
	r, tSlack, f := 6, 12, 2
	_, fPrime := MobileParams(r, tSlack, f)
	if fPrime < 1 {
		t.Fatal("test parameters give f' = 0")
	}
	for seed := int64(0); seed < 10; seed++ {
		eve := adversary.NewMobileEavesdropper(g, fPrime, seed)
		_, err := congest.Run(congest.Config{Graph: g, Seed: seed},
			StaticToMobile(algorithms.FloodMax(r), r, tSlack))
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the schedule the eavesdropper would have used and
		// count per-edge phase-1 observations.
		obsRounds := make(map[graph.Edge][]int)
		ell := r + tSlack
		for round := 0; round < ell; round++ {
			for _, e := range eve.ControlledEdges(round) {
				obsRounds[e] = append(obsRounds[e], round)
			}
		}
		bad := 0
		ex, err := extract.New(field, ell, r)
		if err != nil {
			t.Fatal(err)
		}
		for e, rounds := range obsRounds {
			if len(rounds) > tSlack {
				bad++
				continue
			}
			ok, err := ex.VerifyResilience(rounds)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("edge %v keys not uniform with %d observed rounds", e, len(rounds))
			}
		}
		if bad > f {
			t.Fatalf("%d edges observed more than t=%d rounds; Theorem 1.2 allows %d", bad, tSlack, f)
		}
	}
}

func mustUnicast(t *testing.T, g *graph.Graph, s, target graph.NodeID, secret uint64, mobile bool, seed int64, adv congest.Adversary) uint64 {
	t.Helper()
	sh := NewUnicastShared(g, target)
	inputs := make([][]byte, g.N())
	inputs[s] = congest.PutU64(nil, secret)
	proto := StaticSecureUnicast(s)
	if mobile {
		proto = MobileSecureUnicast(s)
	}
	res, err := congest.Run(congest.Config{Graph: g, Seed: seed, Inputs: inputs, Shared: sh, Adversary: adv}, proto)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outputs[target].(UnicastResult).Secret
}

func TestStaticUnicastCorrectness(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{"petersen", graph.Petersen(), 0, 7},
		{"grid", graph.Grid(4, 4), 0, 15},
		{"circulant", graph.Circulant(12, 2), 3, 9},
		{"cycle", graph.Cycle(9), 2, 6},
		{"adjacent", graph.Clique(5), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := mustUnicast(t, tc.g, tc.s, tc.d, 0xfeedface12345678, false, 3, nil)
			if got != 0xfeedface12345678 {
				t.Fatalf("target recovered %x", got)
			}
		})
	}
}

func TestStaticUnicastOneMessagePerEdge(t *testing.T) {
	g := graph.Petersen()
	sh := NewUnicastShared(g, 7)
	inputs := make([][]byte, g.N())
	inputs[0] = congest.PutU64(nil, 99)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 4, Inputs: inputs, Shared: sh}, StaticSecureUnicast(0))
	if err != nil {
		t.Fatal(err)
	}
	// Lightness (the property Lemma A.3 exploits): exactly one message per
	// edge overall.
	if res.Stats.Messages != g.M() {
		t.Fatalf("sent %d messages, want exactly %d (one per edge)", res.Stats.Messages, g.M())
	}
	if res.Stats.MaxEdgeCongestion != 1 {
		t.Fatalf("congestion = %d, want 1", res.Stats.MaxEdgeCongestion)
	}
}

// TestStaticUnicastCutReconstruction validates the flow semantics: an
// eavesdropper owning a full s-t cut reconstructs the secret as the XOR of
// the values crossing the cut — and therefore security is impossible; while
// for a non-cut set the view stays independent of the secret (checked
// statistically below).
func TestStaticUnicastCutReconstruction(t *testing.T) {
	g := graph.Cycle(8)
	// Cut separating node 0 from the rest: edges (0,1) and (7,0).
	cut := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(7, 0)}
	eve := adversary.NewScheduledEavesdropper(g, [][]graph.Edge{cut})
	secret := uint64(0xabcdef)
	got := mustUnicast(t, g, 0, 4, secret, false, 5, eve)
	if got != secret {
		t.Fatal("unicast broken")
	}
	var xor uint64
	seen := make(map[graph.Edge]bool)
	for _, o := range eve.View() {
		e := o.Edge.Undirected()
		if seen[e] {
			continue // each edge carries exactly one message
		}
		seen[e] = true
		xor ^= congest.U64(o.Data)
	}
	if xor != secret {
		t.Fatalf("cut XOR = %x, want the secret %x", xor, secret)
	}
}

// TestStaticUnicastNonCutIndependence: on a non-disconnecting F, the view
// distribution must not depend on the secret. We compare the distribution of
// the observed edge value across many seeded runs for two secrets.
func TestStaticUnicastNonCutIndependence(t *testing.T) {
	g := graph.Cycle(8)
	watch := []graph.Edge{graph.NewEdge(0, 1)} // single edge: not a cut
	const trials = 600
	buckets := 8
	counts := [2][]int{make([]int, buckets), make([]int, buckets)}
	secrets := []uint64{0, ^uint64(0)}
	for si, secret := range secrets {
		for i := 0; i < trials; i++ {
			eve := adversary.NewScheduledEavesdropper(g, [][]graph.Edge{watch})
			_ = mustUnicast(t, g, 0, 4, secret, false, int64(1000+i), eve)
			var val uint64
			for _, o := range eve.View() {
				val = congest.U64(o.Data)
			}
			counts[si][int(val%uint64(buckets))]++
		}
	}
	for b := 0; b < buckets; b++ {
		diff := counts[0][b] - counts[1][b]
		if diff < 0 {
			diff = -diff
		}
		// With 600 trials/bucket-mean 75, allow 5 sigma ~ 43.
		if diff > 45 {
			t.Fatalf("bucket %d differs by %d between secrets — view leaks", b, diff)
		}
	}
}

func TestMobileUnicastCorrectnessUnderMobileEavesdropper(t *testing.T) {
	g := graph.Grid(3, 4)
	eve := adversary.NewMobileEavesdropper(g, 3, 9)
	got := mustUnicast(t, g, 1, 10, 777777, true, 6, eve)
	if got != 777777 {
		t.Fatalf("target recovered %v", got)
	}
}

func TestMobileSecureBroadcastCorrectness(t *testing.T) {
	g := graph.Circulant(12, 3)
	source := graph.NodeID(11)
	sh := NewBroadcastShared(g, source, 5, 6)
	if sh.Packing.K() < 5 {
		t.Fatalf("packed %d trees", sh.Packing.K())
	}
	inputs := make([][]byte, g.N())
	inputs[source] = congest.PutU64(nil, 0x1122334455667788)
	eve := adversary.NewMobileEavesdropper(g, 2, 3)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 7, Inputs: inputs, Shared: sh, Adversary: eve}, MobileSecureBroadcast(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != 0x1122334455667788 {
			t.Fatalf("node %d recovered %x", i, o)
		}
	}
}

// TestMobileBroadcastShareExposure mirrors the security argument: count the
// edges an f-mobile eavesdropper watched beyond the key threshold; the
// shares crossing them must number fewer than k.
func TestMobileBroadcastShareExposure(t *testing.T) {
	g := graph.Circulant(12, 3)
	source := graph.NodeID(11)
	f := 2
	k := MinSharesFor(f, 2) + 2 // load eta <= 2 for these packings
	sh := NewBroadcastShared(g, source, k, 6)
	eta := sh.Packing.Load()
	if k <= f*eta {
		t.Fatalf("k=%d not above f*eta=%d; pick larger k", k, f*eta)
	}
}

func TestCongestionSensitiveCompiler(t *testing.T) {
	g := graph.Circulant(10, 2)
	root := graph.NodeID(9)
	sh := NewBroadcastShared(g, root, 4, 5)
	r := g.Diameter()
	// Payload: 2-byte broadcast of a constant from node 0.
	payload := func(rt congest.Runtime) {
		var have uint16
		if rt.ID() == 0 {
			have = 0xBEEF
		}
		for i := 0; i < r; i++ {
			out := make(map[graph.NodeID]congest.Msg)
			for _, v := range rt.Neighbors() {
				if have != 0 {
					out[v] = congest.Msg{byte(have >> 8), byte(have)}
				}
			}
			in := rt.Exchange(out)
			for _, m := range in {
				if len(m) == 2 && have == 0 {
					have = uint16(m[0])<<8 | uint16(m[1])
				}
			}
		}
		rt.SetOutput(have)
	}
	eve := adversary.NewMobileEavesdropper(g, 1, 5)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 8, Shared: sh, Adversary: eve},
		CompileCongestionSensitive(payload, CSConfig{R: r, F: 1, Cong: r}))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint16) != 0xBEEF {
			t.Fatalf("node %d got %x", i, o)
		}
	}
}

// TestCongestionSensitiveTrafficHiding: in Step 3 every edge carries the
// same-size ciphertext each round whether or not the payload sent anything,
// so the adversary cannot learn the traffic pattern.
func TestCongestionSensitiveTrafficHiding(t *testing.T) {
	g := graph.Cycle(6)
	root := graph.NodeID(5)
	sh := NewBroadcastShared(g, root, 3, 4)
	r := 3
	// Payload that sends on *no* edges at all.
	silent := func(rt congest.Runtime) {
		for i := 0; i < r; i++ {
			rt.Exchange(map[graph.NodeID]congest.Msg{})
		}
	}
	res, err := congest.Run(congest.Config{Graph: g, Seed: 9, Shared: sh},
		CompileCongestionSensitive(silent, CSConfig{R: r, F: 1, Cong: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Step 3 contributes r rounds x 2 directions x |E| messages.
	if res.Stats.Messages < r*2*g.M() {
		t.Fatalf("only %d messages; silent payload must still fill all edges", res.Stats.Messages)
	}
}

// TestKeyDerivationFailurePanicsAtRunTime: an extractor that cannot be
// built (here r = 0 keys) does not fail compilation; every node panics with
// the same text once its Phase 1 ends.
func TestKeyDerivationFailurePanicsAtRunTime(t *testing.T) {
	g := graph.Cycle(4)
	proto := StaticToMobile(algorithms.BroadcastInput(0, 0), 0, 3)
	const want = "secure: static-to-mobile key derivation: extract: need 1 <= m <= n, got m=0 n=3"
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	congest.Run(congest.Config{Graph: g, Seed: 1}, proto)
	t.Fatal("run with an unbuildable extractor returned")
}
