package adversary

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// The clone-based corruptions the built-ins replaced: each returns fresh
// messages (Msg.Clone or make) instead of writing into the round view's
// Alloc slab. They pin what the built-ins deliver and the order in which
// they draw from the adversary's RNG, which every corrupted record depends
// on.

func refFlip(rng *rand.Rand, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	flip := func(m congest.Msg) congest.Msg {
		if len(m) == 0 {
			return m
		}
		out := m.Clone()
		i := rng.Intn(len(out))
		out[i] ^= byte(1 + rng.Intn(255))
		return out
	}
	return flip(fwd), flip(bwd)
}

func refRandomize(rng *rand.Rand, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	randomize := func(m congest.Msg) congest.Msg {
		if len(m) == 0 {
			return m
		}
		out := make(congest.Msg, len(m))
		rng.Read(out)
		return out
	}
	return randomize(fwd), randomize(bwd)
}

func refSwap(_ *rand.Rand, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	return bwd.Clone(), fwd.Clone()
}

func refInject(rng *rand.Rand, _, _ congest.Msg) (congest.Msg, congest.Msg) {
	forged := make(congest.Msg, 9)
	rng.Read(forged)
	return forged, forged.Clone()
}

// TestCorruptionsMatchCloneReference runs each built-in corruption and its
// clone-based reference on one seed, over free-standing views whose two
// directions carry random frames of 0 B, 9 B and 4 KB (or nothing). The
// replacements must be byte-identical, present or silent alike, the inputs
// (views into the round) unchanged, and the two RNGs must be at the same
// point afterwards, so the built-ins draw exactly as the references do.
func TestCorruptionsMatchCloneReference(t *testing.T) {
	const seed = 1
	g := graph.Clique(2)
	e := graph.NewEdge(0, 1)
	cases := []struct {
		name string
		got  Corruption
		ref  func(rng *rand.Rand, fwd, bwd congest.Msg) (congest.Msg, congest.Msg)
	}{
		{"flip", CorruptFlip, refFlip},
		{"randomize", CorruptRandomize, refRandomize},
		{"swap", CorruptSwap, refSwap},
		{"inject", CorruptInject, refInject},
	}
	frames := rand.New(rand.NewSource(99))
	frame := func(n int) congest.Msg {
		if n < 0 {
			return nil
		}
		m := make(congest.Msg, n)
		frames.Read(m)
		return m
	}
	sizes := []int{-1, 0, 9, 4096} // -1: the direction is silent
	for _, c := range cases {
		for _, fs := range sizes {
			for _, bs := range sizes {
				t.Run(fmt.Sprintf("%s/%d,%d", c.name, fs, bs), func(t *testing.T) {
					traffic := congest.Traffic{}
					if m := frame(fs); m != nil {
						traffic[graph.DirEdge{From: 0, To: 1}] = m
					}
					if m := frame(bs); m != nil {
						traffic[graph.DirEdge{From: 1, To: 0}] = m
					}
					tr, err := congest.NewRoundTraffic(g, traffic)
					if err != nil {
						t.Fatal(err)
					}
					sf, sb := tr.EdgeSlots(e)
					fwd, bwd := tr.Get(sf), tr.Get(sb)
					wantFwd, wantBwd := fwd.Clone(), bwd.Clone()

					gotRNG, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					gf, gb := c.got(tr, gotRNG, 0, e, fwd, bwd)
					rf, rb := c.ref(refRNG, wantFwd.Clone(), wantBwd.Clone())
					if !sameMsg(gf, rf) || !sameMsg(gb, rb) {
						t.Fatalf("replacements %x / %x, reference %x / %x", gf, gb, rf, rb)
					}
					if !sameMsg(tr.Get(sf), wantFwd) || !sameMsg(tr.Get(sb), wantBwd) {
						t.Fatal("the corruption wrote into its inputs")
					}
					// Read keeps a partial word between calls, so compare a
					// short read as well as the source's next value.
					var a, b [3]byte
					gotRNG.Read(a[:])
					refRNG.Read(b[:])
					if a != b || gotRNG.Int63() != refRNG.Int63() {
						t.Fatal("the RNG's next draw differs from the reference's")
					}
				})
			}
		}
	}
}

// sameMsg compares two messages including presence: nil is silent.
func sameMsg(a, b congest.Msg) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// TestInterceptAllocsIndependentOfMessageSize: a warmed Byzantine.Intercept
// with SelectRandom and CorruptFlip corrupts into the view's Alloc slab, so
// its allocations do not depend on the message size: none at 64 B as at
// 8 KB, since the selector's f-edge result is scratch in its state too. The
// free-standing view is never begun again, so its slab only grows, by
// doubling; those few allocations amortize to nothing over the measured
// runs.
func TestInterceptAllocsIndependentOfMessageSize(t *testing.T) {
	g := graph.Clique(6)
	for _, size := range []int{64, 8192} {
		traffic := congest.Traffic{}
		for _, e := range g.Edges() {
			traffic[graph.DirEdge{From: e.U, To: e.V}] = make(congest.Msg, size)
			traffic[graph.DirEdge{From: e.V, To: e.U}] = make(congest.Msg, size)
		}
		tr, err := congest.NewRoundTraffic(g, traffic)
		if err != nil {
			t.Fatal(err)
		}
		adv := NewMobileByzantine(g, 2, 7, SelectRandom, CorruptFlip)
		round := 0
		intercept := func() {
			adv.Intercept(round, tr)
			round++
		}
		for range 8 {
			intercept()
		}
		if allocs := testing.AllocsPerRun(200, intercept); allocs != 0 {
			t.Errorf("%d-byte messages: %.0f allocations per Intercept, want 0", size, allocs)
		}
		if adv.Spent() == 0 {
			t.Fatalf("%d-byte messages: nothing was corrupted", size)
		}
	}
}
