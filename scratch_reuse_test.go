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
	"mobilecongest/internal/secure"
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
	cells := []interleavedCell{
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
	if !checkInterleavedRuns(t, cells) {
		t.Fatal("no run aborted; the sequence no longer leaves a run's buffers mid-use")
	}
}

// interleavedCell is one run of an interleaved sequence: a label and the
// options that build its scenario, called once per run.
type interleavedCell struct {
	label string
	opts  func() []ScenarioOption
}

// checkInterleavedRuns runs cells in order in one RunContext, on the step
// engine and on 4 shards, and requires each record to equal the same
// cell's record in a fresh context: Stats, outputs, every delivered byte
// and, for an eavesdropper set with WithAdversary, its view; or the error.
// It reports whether some run failed on every engine.
func checkInterleavedRuns(t *testing.T, cells []interleavedCell) (aborted bool) {
	t.Helper()
	record := func(rc *congest.RunContext, e Engine, opts []ScenarioOption) string {
		tr := &trafficDigest{h: sha256.New()}
		sc := NewScenario(append(opts, WithEngine(e), WithObserver(tr))...)
		var res *Result
		var err error
		if rc == nil {
			res, err = sc.Run()
		} else {
			res, err = sc.runIn(&warmContext{rc: rc})
		}
		if err != nil {
			return fmt.Sprintf("error=%q", err.Error())
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Outputs)))
		view := "-"
		if eve, ok := sc.adv.(*adversary.Eavesdropper); ok {
			view = digest(eve.ViewBytes())
		}
		return fmt.Sprintf("%+v outputs=%x traffic=%x view=%s", res.Stats, sum[:8], tr.h.Sum(nil)[:8], view)
	}
	aborted = true
	for _, e := range []Engine{EngineStep, NewShardEngine(4)} {
		t.Run(e.Name(), func(t *testing.T) {
			rc := congest.NewRunContext()
			defer rc.Close()
			failed := false
			for _, c := range cells {
				got := record(rc, e, c.opts())
				want := record(nil, e, c.opts())
				if got != want {
					t.Fatalf("%s: in a reused context\n got %s\nwant %s (fresh context)", c.label, got, want)
				}
				failed = failed || strings.HasPrefix(got, "error=")
			}
			aborted = aborted && failed
		})
	}
	return aborted
}

// TestRunContextServesInterleavedSecureRuns does the same for the Theorem
// 1.2 family, whose nodes keep their key-phase storage (streams, key
// blocks, pools, pad buffers and Phase-2 wrapper) in node scratch: the
// registered secure-broadcast cell under a mobile eavesdropper, a second
// seed, the flip and inject write adversaries (whose receivers' streams
// differ from their senders' and may be zero-filled), a run aborted in its
// key phase, the mobile-secure broadcast on the same graph, and the
// congestion-sensitive compiler, which nests its inline broadcast's key
// phase inside its own, interleaved with the mobile-secure broadcast on
// its graph and rebound back.
func TestRunContextServesInterleavedSecureRuns(t *testing.T) {
	g64, err := BuildTopology("circulant", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	g10 := graph.Circulant(10, 2)
	sh64 := secure.NewBroadcastShared(g64, 0, secure.MinSharesFor(2, 3), 40)
	sh10 := secure.NewBroadcastShared(g10, 9, 4, 5)
	registry := func(adv string, f int, seed int64) func() []ScenarioOption {
		return func() []ScenarioOption {
			proto, shared, err := BuildProtocol("secure-broadcast", g64, ProtoParams{Seed: seed, F: f})
			if err != nil {
				t.Fatal(err)
			}
			a, err := BuildAdversary(adv, g64, f, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			return []ScenarioOption{WithGraph(g64), WithProtocol(proto), WithShared(shared), WithAdversary(a), WithSeed(seed)}
		}
	}
	broadcast := func(g *graph.Graph, sh *secure.BroadcastShared, source graph.NodeID, f int, seed int64) func() []ScenarioOption {
		return func() []ScenarioOption {
			inputs := make([][]byte, g.N())
			inputs[source] = congest.PutU64(nil, 0xCAFE+uint64(seed))
			return []ScenarioOption{WithGraph(g), WithProtocol(secure.MobileSecureBroadcast(f)), WithShared(sh),
				WithInputs(inputs), WithAdversary(adversary.NewMobileEavesdropper(g, f, seed)), WithSeed(seed)}
		}
	}
	congestion := func(cfg secure.CSConfig, seed int64) func() []ScenarioOption {
		return func() []ScenarioOption {
			return []ScenarioOption{WithGraph(g10), WithProtocol(secure.CompileCongestionSensitive(csFloodPayload(cfg.R), cfg)),
				WithShared(sh10), WithAdversary(adversary.NewMobileEavesdropper(g10, cfg.F, seed)), WithSeed(seed)}
		}
	}
	aborted := registry("eavesdrop", 2, 1)
	cells := []interleavedCell{
		{"secure-broadcast circulant64 eavesdrop f=2 seed=1", registry("eavesdrop", 2, 1)},
		{"secure-broadcast circulant64 eavesdrop f=2 seed=2", registry("eavesdrop", 2, 2)},
		{"secure-broadcast circulant64 flip f=2 seed=1", registry("flip", 2, 1)},
		{"secure-broadcast circulant64 inject f=1 seed=2", registry("inject", 1, 2)},
		{"secure-broadcast circulant64 eavesdrop f=2 seed=1 aborted in its key phase", func() []ScenarioOption {
			return append(aborted(), WithMaxRounds(40))
		}},
		{"secure-broadcast circulant64 eavesdrop f=2 seed=1 after the abort", registry("eavesdrop", 2, 1)},
		{"mobile-secure-broadcast circulant64 f=2 seed=1", broadcast(g64, sh64, 0, 2, 1)},
		{"secure-broadcast circulant64 eavesdrop f=2 seed=1 after the broadcast", registry("eavesdrop", 2, 1)},
		{"congestion-sensitive circulant(10,2) r=3 f=1 cong=3 seed=1", congestion(secure.CSConfig{R: 3, F: 1, Cong: 3}, 1)},
		{"mobile-secure-broadcast circulant(10,2) f=1 seed=2", broadcast(g10, sh10, 9, 1, 2)},
		{"congestion-sensitive circulant(10,2) r=4 f=2 cong=2 slack=3 seed=2", congestion(secure.CSConfig{R: 4, F: 2, Cong: 2, KeySlack: 3}, 2)},
		{"secure-broadcast circulant64 eavesdrop f=2 seed=1 after rebinding", registry("eavesdrop", 2, 1)},
	}
	if !checkInterleavedRuns(t, cells) {
		t.Fatal("no run aborted; the sequence no longer leaves a key phase mid-use")
	}
}
