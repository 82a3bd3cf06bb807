package resilient_test

import (
	"testing"

	mc "mobilecongest"
	"mobilecongest/internal/resilient"
)

// TestDecodeMemo pins the run memo's use on the benchmark's byz-clique cell
// (hardened-clique, clique16, flip f=2, step engine): a run makes 60
// ECCSafeBroadcast decodes, but every node receives the same 4 words, and
// the memo decodes each once. A decode that bypasses the memo counts 60; a
// memo entry that survives into a later run lowers that run's count. So
// every run must decode 4: repeated runs of one scenario (which reuse its
// RunContext), a clone, and repeated runs of one protocol value.
func TestDecodeMemo(t *testing.T) {
	const want = 4
	g, err := mc.BuildTopology("clique", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		byName := mc.NewScenario(mc.WithGraph(g), mc.WithProtocolName("hardened-clique"),
			mc.WithAdversaryName("flip", 2), mc.WithEngineName("step"), mc.WithSeed(seed))
		proto, shared, err := mc.BuildProtocol("hardened-clique", g, mc.ProtoParams{Seed: seed, F: 2})
		if err != nil {
			t.Fatal(err)
		}
		oneProto := mc.NewScenario(mc.WithGraph(g), mc.WithProtocol(proto), mc.WithShared(shared),
			mc.WithAdversaryName("flip", 2), mc.WithEngineName("step"), mc.WithSeed(seed))
		for i, sc := range []*mc.Scenario{byName, byName, byName.Clone(), oneProto, oneProto} {
			stop := resilient.CountDecodes()
			_, err := sc.Run()
			got := stop()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d, run %d: %d decodes, want %d", seed, i, got, want)
			}
		}
	}
}
