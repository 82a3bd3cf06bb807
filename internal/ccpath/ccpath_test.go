package ccpath

import (
	"fmt"
	"strings"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/cyclecover"
	"mobilecongest/internal/graph"
)

func buildShared(t *testing.T, g *graph.Graph, k int) *Shared {
	t.Helper()
	c, err := cyclecover.Build(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyColoring(); err != nil {
		t.Fatal(err)
	}
	return NewShared(c)
}

func TestCompileFaultFree(t *testing.T) {
	g := graph.Circulant(10, 2)
	sh := buildShared(t, g, 3)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 1, Shared: sh, MaxRounds: 1 << 22},
		Compile(algorithms.FloodMax(g.Diameter()), 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(g.N()-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
	// Round envelope: r * NumColors * window.
	if want := g.Diameter() * sh.RoundsPerSimRound(1); res.Stats.Rounds != want {
		t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, want)
	}
}

func TestCompileUnderMobileByzantine(t *testing.T) {
	g := graph.Circulant(10, 2)
	sh := buildShared(t, g, 3)
	for _, tc := range []struct {
		name string
		sel  adversary.Selector
		cor  adversary.Corruption
	}{
		{"random-flip", adversary.SelectRandom, adversary.CorruptFlip},
		{"busiest-randomize", adversary.SelectBusiest, adversary.CorruptRandomize},
		{"rotating-drop", adversary.SelectRotating, adversary.CorruptDrop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := adversary.NewMobileByzantine(g, 1, 5, tc.sel, tc.cor)
			res, err := congest.Run(congest.Config{Graph: g, Seed: 2, Shared: sh, Adversary: adv, MaxRounds: 1 << 22},
				Compile(algorithms.FloodMax(g.Diameter()), 1))
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range res.Outputs {
				if o.(uint64) != uint64(g.N()-1) {
					t.Fatalf("node %d output %v", i, o)
				}
			}
		})
	}
}

func TestCompileF2(t *testing.T) {
	g := graph.Circulant(12, 3) // 6-edge-connected: k=5 paths
	sh := buildShared(t, g, 5)
	adv := adversary.NewMobileByzantine(g, 2, 7, adversary.SelectRandom, adversary.CorruptRandomize)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 3, Shared: sh, Adversary: adv, MaxRounds: 1 << 23},
		Compile(algorithms.FloodMax(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(g.N()-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestCompileRejectsOverBudget(t *testing.T) {
	g := graph.Circulant(10, 2)
	sh := buildShared(t, g, 3)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "cannot defend f=5") {
			t.Fatalf("f beyond cover capacity: panic %q, want the capacity rejection", msg)
		}
	}()
	Compile(algorithms.FloodMax(1), 5)(stub{sh: sh})
}

// stub reaches the capacity check, which reads only the run's artifact; the
// embedded nil Runtime panics on any other call.
type stub struct {
	congest.Runtime
	sh *Shared
}

func (s stub) Shared() any { return s.sh }
