package mobilecongest

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current code")

const hardenedGoldenFile = "testdata/hardened_clique_golden.txt"

// hardenedGoldenLine runs one hardened-clique cell on the step engine and
// renders its Stats and an output digest as one line.
func hardenedGoldenLine(adv string, f, n int, seed int64) string {
	res, err := NewScenario(
		WithTopology("clique", n, 0),
		WithProtocolName("hardened-clique"),
		WithAdversaryName(adv, f),
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
// a decoded correction list moves Bytes or the outputs here. Regenerate with
// -update-golden only for a deliberate protocol change.
func TestHardenedCliqueGolden(t *testing.T) {
	var got []string
	for _, adv := range []string{"flip", "drop", "randomize", "swap", "inject", "busiest"} {
		for _, f := range []int{1, 2, 3} {
			for _, n := range []int{6, 16} {
				for _, seed := range []int64{1, 2} {
					got = append(got, hardenedGoldenLine(adv, f, n, seed))
				}
			}
		}
	}
	checkGolden(t, hardenedGoldenFile, got)
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

// TestHardenedCliqueAllocCeiling caps the allocations of one warmed
// hardened-clique run (clique16, flip f=2, step engine). The compiler's tree
// primitives reuse their frame buffers and merge sketches on the wire, so a
// run makes about 16k allocations; rebuilding frames or decoding sketches
// per round would put it back in the hundreds of thousands.
func TestHardenedCliqueAllocCeiling(t *testing.T) {
	const ceiling = 40_000
	sc := NewScenario(
		WithTopology("clique", 16, 0),
		WithProtocolName("hardened-clique"),
		WithAdversaryName("flip", 2),
		WithEngineName("step"),
		WithSeed(1),
	)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("hardened-clique clique16 flip f=2: %.0f allocs per run, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocs per run", allocs)
}
