package mobilecongest

import (
	"testing"

	"mobilecongest/internal/algorithms"
)

func TestFacadeHardenClique(t *testing.T) {
	n := 8
	g := NewClique(n)
	hardened, shared := HardenClique(algorithms.FloodMax(2), n, 1)
	adv := NewMobileByzantine(g, 1, 3)
	res, err := NewScenario(WithGraph(g), WithSeed(1), WithAdversary(adv), WithShared(shared),
		WithMaxRounds(1<<22), WithProtocol(hardened)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(n-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestFacadeHardenGeneral(t *testing.T) {
	g := NewCirculant(12, 3)
	hardened, shared := HardenGeneral(algorithms.FloodMax(g.Diameter()), g, 1, 6, 6)
	adv := NewMobileByzantine(g, 1, 5)
	res, err := NewScenario(WithGraph(g), WithSeed(2), WithAdversary(adv), WithShared(shared),
		WithMaxRounds(1<<22), WithProtocol(hardened)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != uint64(g.N()-1) {
			t.Fatalf("node %d output %v", i, o)
		}
	}
}

func TestFacadeEavesdropper(t *testing.T) {
	g := NewCirculant(10, 2)
	eve := NewMobileEavesdropper(g, 2, 7)
	res, err := NewScenario(WithGraph(g), WithSeed(3), WithAdversary(eve),
		WithProtocol(algorithms.FloodMax(g.Diameter()))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(eve.View()) == 0 {
		t.Fatal("eavesdropper saw nothing")
	}
	for _, o := range res.Outputs {
		if o.(uint64) != uint64(g.N()-1) {
			t.Fatal("payload broken by passive adversary")
		}
	}
}
