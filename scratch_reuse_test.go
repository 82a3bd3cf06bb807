package mobilecongest

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/rewind"
)

// TestRunContextServesInterleavedRuns runs a sequence of compiled cells in
// one RunContext, which keeps every node's compiler buffers (rsim frames,
// candidate copies, sketch images, decode sketches, payload inbox) between
// its runs, and requires each run's record to match the same cell run in a
// fresh context byte for byte: Stats, outputs, every delivered byte, or
// the error. The sequence changes the adversary, f (and with it the sketch
// sparsity) and the seed between runs on one graph, aborts a run midway,
// switches to the rewind and ℓ0 compilers (rebinding the context to their
// graphs), rebinds to a smaller clique and back, on the step engine and on
// 4 shards.
func TestRunContextServesInterleavedRuns(t *testing.T) {
	clique16, clique6 := graph.Clique(16), graph.Clique(6)
	clique8, clique10 := graph.Clique(8), graph.Clique(10)
	rewindSh, rewindProto := rewind.CliqueShared(8), rewind.Compile(algorithms.FloodMax(2), rewind.Config{R: 2, F: 1, Rep: 3})
	l0Sh := resilient.CliqueShared(10)
	l0Proto := resilient.Compile(algorithms.FloodMax(2), resilient.Config{Mode: resilient.L0Mode, F: 1, Rep: 3, Samplers: 6, Iterations: 3})
	hardened := func(g *graph.Graph, adv string, f int, seed int64) []ScenarioOption {
		return []ScenarioOption{WithGraph(g), WithProtocolName("hardened-clique"), WithAdversaryName(adv, f), WithSeed(seed)}
	}
	compiled := func(g *graph.Graph, sh any, proto Protocol, f int, seed int64) []ScenarioOption {
		opts := []ScenarioOption{WithGraph(g), WithShared(sh), WithProtocol(proto), WithSeed(seed), WithMaxRounds(1 << 22)}
		if f > 0 {
			opts = append(opts, WithAdversary(adversary.NewMobileByzantine(g, f, seed+100, adversary.SelectRandom, adversary.CorruptFlip)))
		}
		return opts
	}
	cells := []struct {
		label string
		opts  func() []ScenarioOption
	}{
		{"hardened clique16 flip f=2 seed=1", func() []ScenarioOption { return hardened(clique16, "flip", 2, 1) }},
		{"hardened clique16 none seed=1", func() []ScenarioOption { return hardened(clique16, "none", 0, 1) }},
		{"hardened clique16 flip f=2 seed=2", func() []ScenarioOption { return hardened(clique16, "flip", 2, 2) }},
		{"hardened clique16 flip f=1 seed=1", func() []ScenarioOption { return hardened(clique16, "flip", 1, 1) }},
		{"hardened clique16 flip f=2 seed=1 aborted", func() []ScenarioOption {
			return append(hardened(clique16, "flip", 2, 1), WithMaxRounds(100))
		}},
		{"hardened clique16 flip f=2 seed=1 after the abort", func() []ScenarioOption { return hardened(clique16, "flip", 2, 1) }},
		{"rewind clique8 flip f=1 seed=1", func() []ScenarioOption { return compiled(clique8, rewindSh, rewindProto, 1, 1) }},
		{"rewind clique8 none seed=2", func() []ScenarioOption { return compiled(clique8, rewindSh, rewindProto, 0, 2) }},
		{"l0 clique10 flip f=1 seed=1", func() []ScenarioOption { return compiled(clique10, l0Sh, l0Proto, 1, 1) }},
		{"l0 clique10 none seed=2", func() []ScenarioOption { return compiled(clique10, l0Sh, l0Proto, 0, 2) }},
		{"hardened clique6 flip f=1 seed=1", func() []ScenarioOption { return hardened(clique6, "flip", 1, 1) }},
		{"hardened clique16 flip f=2 seed=1 after rebinding", func() []ScenarioOption { return hardened(clique16, "flip", 2, 1) }},
	}
	record := func(rc *congest.RunContext, e Engine, opts []ScenarioOption) string {
		tr := &trafficDigest{h: sha256.New()}
		sc := NewScenario(append(opts, WithEngine(e), WithObserver(tr))...)
		var res *Result
		var err error
		if rc == nil {
			res, err = sc.Run()
		} else {
			res, err = sc.runIn(rc)
		}
		if err != nil {
			return fmt.Sprintf("error=%q", err.Error())
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Outputs)))
		return fmt.Sprintf("%+v outputs=%x traffic=%x", res.Stats, sum[:8], tr.h.Sum(nil)[:8])
	}
	for _, e := range []Engine{EngineStep, NewShardEngine(4)} {
		t.Run(e.Name(), func(t *testing.T) {
			rc := congest.NewRunContext()
			defer rc.Close()
			aborted := false
			for _, c := range cells {
				got := record(rc, e, c.opts())
				want := record(nil, e, c.opts())
				if got != want {
					t.Fatalf("%s: in a reused context\n got %s\nwant %s (fresh context)", c.label, got, want)
				}
				aborted = aborted || strings.HasPrefix(got, "error=")
			}
			if !aborted {
				t.Fatal("no run aborted; the sequence no longer leaves a run's buffers mid-use")
			}
		})
	}
}
