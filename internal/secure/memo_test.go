package secure_test

import (
	"testing"

	mc "mobilecongest"
	"mobilecongest/internal/secure"
)

// TestKeyPhaseMemo pins the run memo's use on the benchmark's
// secure-circulant cell (secure-broadcast, circulant128 k=4, eavesdrop f=2,
// step engine): both endpoints of each of the 1024 edge-directions condense
// the same stream, and a run extracts each stream once. A key phase that
// bypasses the memo extracts 2048; a memo entry that survives into a later
// run lowers that run's count. So every run must extract 1024: repeated runs
// of one scenario (which reuse its RunContext), a clone, and repeated runs
// of one protocol value.
func TestKeyPhaseMemo(t *testing.T) {
	const want = 1024
	g, err := mc.BuildTopology("circulant", 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		byName := mc.NewScenario(mc.WithGraph(g), mc.WithProtocolName("secure-broadcast"),
			mc.WithAdversaryName("eavesdrop", 2), mc.WithEngineName("step"), mc.WithSeed(seed))
		proto, shared, err := mc.BuildProtocol("secure-broadcast", g, mc.ProtoParams{Seed: seed, F: 2})
		if err != nil {
			t.Fatal(err)
		}
		oneProto := mc.NewScenario(mc.WithGraph(g), mc.WithProtocol(proto), mc.WithShared(shared),
			mc.WithAdversaryName("eavesdrop", 2), mc.WithEngineName("step"), mc.WithSeed(seed))
		for i, sc := range []*mc.Scenario{byName, byName, byName.Clone(), oneProto, oneProto} {
			stop := secure.CountExtractions()
			_, err := sc.Run()
			got := stop()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d, run %d: %d extractions, want %d", seed, i, got, want)
			}
		}
	}
}
