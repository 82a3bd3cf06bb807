package congest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilecongest/internal/graph"
)

// TestEngineDeterminismQuick: arbitrary random-messaging protocols produce
// identical outputs for identical seeds on random graphs.
func TestEngineDeterminismQuick(t *testing.T) {
	f := func(seed int64, roundsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := graph.Circulant(maxI(n, 5), 2)
		rounds := 1 + int(roundsRaw)%4
		proto := func(rt Runtime) {
			acc := uint64(0)
			for r := 0; r < rounds; r++ {
				out := make(map[graph.NodeID]Msg)
				for _, v := range rt.Neighbors() {
					if rt.Rand().Intn(2) == 0 {
						out[v] = U64Msg(rt.Rand().Uint64())
					}
				}
				in := rt.Exchange(out)
				for _, m := range in {
					acc ^= U64(m)
				}
			}
			rt.SetOutput(acc)
		}
		r1, err1 := Run(Config{Graph: g, Seed: seed}, proto)
		r2, err2 := Run(Config{Graph: g, Seed: seed}, proto)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range r1.Outputs {
			if r1.Outputs[i] != r2.Outputs[i] {
				return false
			}
		}
		return r1.Stats == r2.Stats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
