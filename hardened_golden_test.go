package mobilecongest

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current code")

const hardenedGoldenFile = "testdata/hardened_clique_golden.txt"

// hardenedGoldenLine runs one hardened-clique cell on engine e and renders
// its Stats and an output digest as one line.
func hardenedGoldenLine(e Engine, adv string, f, n int, seed int64) string {
	res, err := NewScenario(
		WithTopology("clique", n, 0),
		WithProtocolName("hardened-clique"),
		WithAdversaryName(adv, f),
		WithEngine(e),
		WithSeed(seed),
	).Run()
	cell := fmt.Sprintf("%s f=%d n=%d seed=%d", adv, f, n, seed)
	if err != nil {
		return fmt.Sprintf("%s error=%q", cell, err.Error())
	}
	st := res.Stats
	sum := sha256.Sum256([]byte(fmt.Sprint(res.Outputs...)))
	return fmt.Sprintf("%s rounds=%d messages=%d bytes=%d maxmsg=%d maxcong=%d corrupted=%d outputs=%x",
		cell, st.Rounds, st.Messages, st.Bytes, st.MaxMsgBytes, st.MaxEdgeCongestion, st.CorruptedEdgeRounds, sum[:8])
}

// TestHardenedCliqueGolden pins the Theorem 1.6 compiler's Stats (bytes
// included) and outputs over the byzantine adversary menu, f, n, and seeds.
// The tree primitives it runs on (rsim, sketch, ecc) may be made faster, but
// never observably different: any change to a frame byte, a merge result, or
// a decoded correction list moves Bytes or the outputs here. It runs on the
// step engine and on 4 shards (see checkGoldenOnEngines). Regenerate with
// -update-golden only for a deliberate protocol change.
func TestHardenedCliqueGolden(t *testing.T) {
	checkGoldenOnEngines(t, hardenedGoldenFile, func(e Engine) []string {
		var got []string
		for _, adv := range []string{"flip", "drop", "randomize", "swap", "inject", "busiest"} {
			for _, f := range []int{1, 2, 3} {
				for _, n := range []int{6, 16} {
					for _, seed := range []int64{1, 2} {
						got = append(got, hardenedGoldenLine(e, adv, f, n, seed))
					}
				}
			}
		}
		return got
	})
}

// TestHardenedCliqueMatchesReference checks the Theorem 1.6 compiler, whose
// rsim frames the engines deliver by reference, against the reference
// simulator, which copies every payload: on a small byzantine cell
// (clique6, flip f=1), step and the shard engine at 1, 2, GOMAXPROCS and 64
// shards must give the reference's Stats, outputs and trace byte for byte.
func TestHardenedCliqueMatchesReference(t *testing.T) {
	run := func(e Engine) (*Result, []byte) {
		t.Helper()
		tr := NewTraceObserver()
		res, err := NewScenario(
			WithTopology("clique", 6, 0),
			WithProtocolName("hardened-clique"),
			WithAdversaryName("flip", 1),
			WithEngine(e),
			WithSeed(1),
			WithObserver(tr),
		).Run()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		b, err := json.Marshal(traceOf(e, tr))
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	want, wtr := run(&refEngine{})
	if want.Stats.CorruptedEdgeRounds == 0 {
		t.Fatal("the adversary corrupted nothing; the cell no longer exercises the byzantine path")
	}
	wout := fmt.Sprintf("%#v", want.Outputs)
	check := func(name string, e Engine) {
		t.Helper()
		got, gtr := run(e)
		if got.Stats != want.Stats {
			t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats, want.Stats)
		}
		if gout := fmt.Sprintf("%#v", got.Outputs); gout != wout {
			t.Fatalf("%s: outputs differ from the reference:\n reference %s\n engine    %s", name, wout, gout)
		}
		if string(gtr) != string(wtr) {
			t.Fatalf("%s: trace differs from the reference", name)
		}
	}
	check("step", EngineStep)
	for _, sc := range []int{1, 2, runtime.GOMAXPROCS(0), 64} {
		check(fmt.Sprintf("shard(%d)", sc), NewShardEngine(sc))
	}
}

// checkGoldenOnEngines checks the lines cells renders on the step engine
// against the golden file at path (see checkGolden), then requires the same
// lines on 4 parallel shards, where nodes on different shards derive the
// same run-memo entries at once.
func checkGoldenOnEngines(t *testing.T, path string, cells func(Engine) []string) {
	t.Helper()
	want := cells(EngineStep)
	checkGolden(t, path, want)
	got := cells(NewShardEngine(4))
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d on 4 shards:\n got %s\nwant %s (step)", path, i+1, got[i], want[i])
		}
	}
}

// checkGolden compares got line by line with the golden file at path, or
// rewrites the file from got under -update-golden.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var want []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, test produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, got[i], want[i])
		}
	}
}

// TestHardenedCliqueAllocCeiling caps the allocations and the allocated
// bytes of one warmed hardened-clique run (clique16, flip f=2, step engine).
// The compiler's tree primitives build each frame only when a tree commits,
// and each node encodes its per-tree sketches into one reused buffer that
// the convergecast folds child sketches into in place, collects its sketch
// stream into one slice sized from its degree, and the run's memo decodes
// each broadcast word once. Every node keeps its frames, candidate copies,
// sketch images and decode sketches in its node scratch, which the
// scenario's context keeps across runs, together with the tree primitives'
// committers and per-tree slices; BroadcastDown copies its adopted payloads
// into the recycled candidate buffers too. Each payload round keeps its
// sent messages and estimates in per-port slices of the node scratch, with
// no map per round, and the node keeps its payload runtime (a
// congest.WrappedRuntime and its outbox) there as well, rebound per run.
// The adversary reuses its edge permutation and selection and corrupts
// into its round view's Alloc slab, and the correction seeds' fingerprint
// is drawn from a generator the deriving node keeps in its scratch. A
// warmed run makes about 1.8k allocations of about 117 KB in all (123 KB
// under the race detector); the ceilings leave about 25% over that. A new
// math/rand source per seed fold puts it back at about 127 KB, a new
// payload runtime per node per run at about 143 KB, node-keyed maps per
// payload round at about 219 KB, cloning every corrupted frame at about
// 1.47 MB, rebuilding the node buffers per run at about 7.3 MB, building
// frames every round or a fresh sketch and merge result per tree and child
// above 12k allocations and 13 MB, and decoding sketches per round in the
// hundreds of thousands.
func TestHardenedCliqueAllocCeiling(t *testing.T) {
	const (
		ceiling      = 2_250
		bytesCeiling = 146_000
	)
	sc := NewScenario(
		WithTopology("clique", 16, 0),
		WithProtocolName("hardened-clique"),
		WithAdversaryName("flip", 2),
		WithEngineName("step"),
		WithSeed(1),
	)
	run := func() {
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	if allocs > ceiling {
		t.Fatalf("hardened-clique clique16 flip f=2: %.0f allocs per run, ceiling %d", allocs, ceiling)
	}
	// One more warmed run, measured by bytes; AllocsPerRun has already
	// warmed the scenario's context.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > bytesCeiling {
		t.Fatalf("hardened-clique clique16 flip f=2: %d bytes allocated per run, ceiling %d", allocated, bytesCeiling)
	}
	t.Logf("%.0f allocs, %d bytes per run", allocs, allocated)
}

// TestSecureBroadcastAllocCeiling caps the allocations and the allocated
// bytes of one warmed secure-broadcast run (circulant128 k=4, eavesdrop
// f=2, step engine). The Theorem 1.2 key phase shares one table-driven
// extractor per geometry and extracts each edge-direction's stream once
// through the run's memo (1024 extractions, not 2048). Every node keeps its
// key-phase storage (streams, send buffer, pools, key block, extractor
// lanes, pad buffers and Phase-2 wrapper) and its registry input wrapper
// in node scratch, which the scenario's context keeps across runs, and the
// scenario keeps its eavesdropper, whose view reuses its storage. The
// protocol build derives its payload value by re-seeding one shared
// generator. A warmed run makes about 270 allocations of about 8.2 KB in
// all (10.3 KB under the race detector), mostly the per-run protocol
// build; the ceilings leave about 25% over that. A fresh 5.4 KB generator
// per build puts it back at about 13.6 KB.
// Allocating the key-phase storage per run puts it back at about 1.9 MB
// and 3.4k allocations, and rebuilding a Vandermonde matrix per port or a
// fresh message per key word near 200k allocations.
func TestSecureBroadcastAllocCeiling(t *testing.T) {
	const (
		ceiling      = 335
		bytesCeiling = 11_000
	)
	sc := NewScenario(
		WithTopology("circulant", 128, 4),
		WithProtocolName("secure-broadcast"),
		WithAdversaryName("eavesdrop", 2),
		WithEngineName("step"),
		WithSeed(1),
	)
	run := func() {
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// The context parks its node coroutines from its second run on.
	run()
	allocs := testing.AllocsPerRun(3, run)
	if allocs > ceiling {
		t.Fatalf("secure-broadcast circulant128 eavesdrop f=2: %.0f allocs per run, ceiling %d", allocs, ceiling)
	}
	// One more warmed run, measured by bytes; AllocsPerRun has already
	// warmed the scenario's context.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > bytesCeiling {
		t.Fatalf("secure-broadcast circulant128 eavesdrop f=2: %d bytes allocated per run, ceiling %d", allocated, bytesCeiling)
	}
	t.Logf("%.0f allocs, %d bytes per run", allocs, allocated)
}
