package secure

import (
	"slices"
	"testing"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// TestTakeKeyPhase: every key phase of a node's run gets storage of its
// own, nested or one after the other, and a later run in the same context
// hands the same storage out again in the same order, so a warm run
// allocates none of it and no run rewrites a stream or key block that the
// memo still holds.
func TestTakeKeyPhase(t *testing.T) {
	g := graph.Cycle(4)
	proto := func(rt congest.Runtime) {
		outer := takeKeyPhase(rt)
		inner := takeKeyPhase(&congest.WrappedRuntime{Base: rt}) // a nested phase, as CompileCongestionSensitive runs
		rt.ExchangePorts(rt.OutBuf())
		later := takeKeyPhase(rt)
		rt.SetOutput([3]*keyPhase{outer, inner, later})
	}
	rc := congest.NewRunContext()
	defer rc.Close()
	var first []any
	for run := range 3 {
		res, err := congest.ShardEngine{Shards: 1}.RunIn(rc, congest.Config{Graph: g, Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*keyPhase]bool{}
		for u, o := range res.Outputs {
			for i, kp := range o.([3]*keyPhase) {
				if seen[kp] {
					t.Fatalf("run %d: node %d's key phase %d shares storage with another", run, u, i)
				}
				seen[kp] = true
			}
		}
		if first == nil {
			first = res.Outputs
		} else if !slices.Equal(first, res.Outputs) {
			t.Fatalf("run %d handed out other storage than the first run", run)
		}
	}
}
