package mobilecongest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/rewind"
)

const treeCompilersGoldenFile = "testdata/tree_compilers_golden.txt"

// treeCompilerCell is one compiled run over a tree packing.
type treeCompilerCell struct {
	label string
	g     *graph.Graph
	sh    *resilient.Shared
	proto congest.Protocol
}

// treeCompilerCells lists the rsim callers the hardened-clique golden does
// not reach: the sparse compiler over a greedy packing of a circulant (trees
// deeper than 2, so frames change mid-call), the ℓ0-sampling compiler, and
// the rewind compiler.
func treeCompilerCells() []treeCompilerCell {
	circ := graph.Circulant(14, 3)
	clique10, clique8 := graph.Clique(10), graph.Clique(8)
	return []treeCompilerCell{
		{"sparse circulant14 k=3", circ, resilient.GeneralShared(circ, 6, 6),
			resilient.Compile(algorithms.FloodMax(circ.Diameter()), resilient.Config{Mode: resilient.SparseMode, F: 1, Rep: 5})},
		{"l0 clique10", clique10, resilient.CliqueShared(10),
			resilient.Compile(algorithms.FloodMax(2), resilient.Config{Mode: resilient.L0Mode, F: 1, Rep: 3, Samplers: 6, Iterations: 3})},
		{"rewind clique8", clique8, rewind.CliqueShared(8),
			rewind.Compile(algorithms.FloodMax(2), rewind.Config{R: 2, F: 1, Rep: 3})},
	}
}

// trafficDigest hashes every delivered message (round, sender, receiver,
// length, bytes) in canonical order, so a golden line pins frame contents,
// not only their lengths.
type trafficDigest struct{ h hash.Hash }

func (d *trafficDigest) RoundStart(int) {}

func (d *trafficDigest) RoundDelivered(round int, view *RoundView) {
	var hdr [16]byte
	for de, m := range view.All() {
		binary.BigEndian.PutUint32(hdr[0:], uint32(round))
		binary.BigEndian.PutUint32(hdr[4:], uint32(de.From))
		binary.BigEndian.PutUint32(hdr[8:], uint32(de.To))
		binary.BigEndian.PutUint32(hdr[12:], uint32(len(m)))
		d.h.Write(hdr[:])
		d.h.Write(m)
	}
}

func (d *trafficDigest) RunDone(congest.Stats, error) {}

// TestTreeCompilersGolden pins Stats (bytes included), an output digest and
// a digest of every delivered byte for each compiler built on rsim and
// sketch besides hardened-clique, each fault-free and under one flip
// adversary. Like TestHardenedCliqueGolden it lets the tree primitives get
// faster but never observably different; regenerate with -update-golden only
// for a deliberate protocol change.
func TestTreeCompilersGolden(t *testing.T) {
	var got []string
	for _, c := range treeCompilerCells() {
		for _, f := range []int{0, 1} {
			for _, seed := range []int64{1, 2} {
				tr := &trafficDigest{h: sha256.New()}
				opts := []ScenarioOption{
					WithGraph(c.g), WithShared(c.sh), WithProtocol(c.proto), WithObserver(tr),
					WithEngineName("step"), WithSeed(seed), WithMaxRounds(1 << 22),
				}
				adv := "none"
				if f > 0 {
					adv = "flip"
					opts = append(opts, WithAdversary(adversary.NewMobileByzantine(c.g, f, seed+100, adversary.SelectRandom, adversary.CorruptFlip)))
				}
				cell := fmt.Sprintf("%s %s f=%d seed=%d", c.label, adv, f, seed)
				res, err := NewScenario(opts...).Run()
				if err != nil {
					got = append(got, fmt.Sprintf("%s error=%q", cell, err.Error()))
					continue
				}
				st := res.Stats
				sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Outputs)))
				got = append(got, fmt.Sprintf("%s rounds=%d messages=%d bytes=%d maxmsg=%d maxcong=%d corrupted=%d outputs=%x traffic=%x",
					cell, st.Rounds, st.Messages, st.Bytes, st.MaxMsgBytes, st.MaxEdgeCongestion, st.CorruptedEdgeRounds, sum[:8], tr.h.Sum(nil)[:8]))
			}
		}
	}
	checkGolden(t, treeCompilersGoldenFile, got)
}

// TestRewindAllocCeiling caps what one warm rewind clique8 run (the
// golden's cell, under flip f=1, step engine) allocates. Each node replays
// its payload once per global round and draws a transcript fingerprint per
// port, and draws the correction seeds' fingerprint, each from a generator
// it keeps in node scratch and restarts from the seed
// (congest.SeededRand). A warm run allocates about 1.22 MB (1.24 MB under
// the race detector), and the ceiling leaves about 25% over that. A new
// math/rand source per correction seed fold put it at 1.27 MB, and one for
// every replay and fingerprint too at 5.2 MB.
func TestRewindAllocCeiling(t *testing.T) {
	const bytesCeiling = 1_525_000
	g := graph.Clique(8)
	sc := NewScenario(
		WithGraph(g),
		WithProtocol(rewind.Compile(algorithms.FloodMax(2), rewind.Config{R: 2, F: 1, Rep: 3})),
		WithShared(rewind.CliqueShared(8)),
		WithAdversaryName("flip", 1),
		WithSeed(1),
	)
	run := func() {
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	allocated := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocated > bytesCeiling {
		t.Fatalf("rewind clique8 flip f=1: %d bytes allocated per warm run, ceiling %d", allocated, bytesCeiling)
	}
	t.Logf("%d bytes, %d allocs per warm run", allocated, (after.Mallocs-before.Mallocs)/runs)
}
