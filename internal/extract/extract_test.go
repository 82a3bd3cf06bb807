package extract

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilecongest/internal/gf"
)

var testField = gf.NewField16()

// extractOne runs x through lane 0 of ExtractLanes (the other lanes carry
// zeros) and returns its M() keys.
func extractOne(ex *Extractor, x []gf.Elem) []gf.Elem {
	in := make([]gf.Elem, Lanes*ex.N())
	for i, v := range x {
		in[i*Lanes] = v
	}
	out := make([]gf.Elem, Lanes*ex.M())
	ex.ExtractLanes(out, in)
	y := make([]gf.Elem, ex.M())
	for j := range y {
		y[j] = out[j*Lanes]
	}
	return y
}

func TestResilienceRankAllSubsets(t *testing.T) {
	// Small enough to enumerate: n=6, m=3, t=3. Every observed set of size
	// <= 3 must leave the outputs uniform.
	ex, err := New(testField, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var idx [6]int
	for i := range idx {
		idx[i] = i
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			for c := b + 1; c < 6; c++ {
				ok, err := ex.VerifyResilience([]int{a, b, c})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("resilience fails for observed set {%d,%d,%d}", a, b, c)
				}
			}
		}
	}
}

func TestResilienceRandomSubsets(t *testing.T) {
	ex, err := New(testField, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tObs := rng.Intn(ex.Resilience() + 1)
		obs := rng.Perm(40)[:tObs]
		ok, err := ex.VerifyResilience(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("resilience fails for random observed set %v", obs)
		}
	}
}

func TestResilienceBudgetEnforced(t *testing.T) {
	ex, _ := New(testField, 10, 4)
	if _, err := ex.VerifyResilience([]int{0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("over-budget observed set accepted")
	}
	if _, err := ex.VerifyResilience([]int{99}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestOutputUniformityEmpirical fixes an observed set and checks the output
// distribution is uniform over random free inputs: every output bucket
// should be hit roughly equally.
func TestOutputUniformityEmpirical(t *testing.T) {
	ex, _ := New(testField, 8, 2)
	rng := rand.New(rand.NewSource(17))
	observedIdx := []int{1, 5, 6} // fixed, known-to-adversary positions
	obsVals := []gf.Elem{111, 222, 333}
	const trials = 20000
	const buckets = 8
	counts := make([]int, buckets)
	for trial := 0; trial < trials; trial++ {
		x := make([]gf.Elem, 8)
		for i := range x {
			x[i] = gf.Elem(rng.Intn(gf.Order16))
		}
		for i, oi := range observedIdx {
			x[oi] = obsVals[i]
		}
		y := extractOne(ex, x)
		counts[int(y[0])*buckets/gf.Order16]++
	}
	want := float64(trials) / buckets
	for i, c := range counts {
		if float64(c) < want*0.9 || float64(c) > want*1.1 {
			t.Errorf("output bucket %d count %d far from uniform %f", i, c, want)
		}
	}
}

func TestExtractLinear(t *testing.T) {
	ex, _ := New(testField, 12, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]gf.Elem, 12)
		y := make([]gf.Elem, 12)
		for i := range x {
			x[i] = gf.Elem(rng.Intn(gf.Order16))
			y[i] = gf.Elem(rng.Intn(gf.Order16))
		}
		xy := make([]gf.Elem, 12)
		for i := range xy {
			xy[i] = x[i] ^ y[i]
		}
		ex1, ex2, ex3 := extractOne(ex, x), extractOne(ex, y), extractOne(ex, xy)
		for i := range ex3 {
			if ex3[i] != ex1[i]^ex2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testField, 4, 5); err == nil {
		t.Fatal("m > n accepted")
	}
	if _, err := New(testField, 4, 0); err == nil {
		t.Fatal("m = 0 accepted")
	}
	if _, err := New(testField, gf.Order16, 4); err == nil {
		t.Fatal("n >= order accepted")
	}
}

// reference is the textbook extractor the table-driven kernel replaces: the
// explicit Vandermonde matrix applied as Mᵀx.
func reference(n, m int, x []gf.Elem) []gf.Elem {
	return gf.Vandermonde(testField, n, m).TransposeMulVec(x)
}

// checkAgainstReference runs ExtractLanes on Lanes inputs (lane w gets
// inputs[w]) and compares every output with the reference.
func checkAgainstReference(t *testing.T, n, m int, inputs [Lanes][]gf.Elem) bool {
	t.Helper()
	ex, err := New(testField, n, m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]gf.Elem, Lanes*n)
	for w, in := range inputs {
		for i, v := range in {
			x[i*Lanes+w] = v
		}
	}
	y := make([]gf.Elem, Lanes*m)
	ex.ExtractLanes(y, x)
	ok := true
	for w, in := range inputs {
		for j, want := range reference(n, m, in) {
			if got := y[j*Lanes+w]; got != want {
				t.Errorf("n=%d m=%d lane %d key %d: ExtractLanes %#x, reference %#x", n, m, w, j, got, want)
				ok = false
			}
		}
	}
	return ok
}

// TestExtractMatchesVandermonde pins the kernel to gf.Vandermonde's Mᵀx
// on random, all-zero and all-0xFFFF inputs.
func TestExtractMatchesVandermonde(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range [][2]int{{1, 1}, {2, 1}, {6, 3}, {85, 17}, {85, 85}, {300, 40}} {
		n, m := c[0], c[1]
		var random, zero, ones [Lanes][]gf.Elem
		for w := range random {
			random[w] = make([]gf.Elem, n)
			zero[w] = make([]gf.Elem, n)
			ones[w] = make([]gf.Elem, n)
			for i := 0; i < n; i++ {
				random[w][i] = gf.Elem(rng.Intn(gf.Order16))
				ones[w][i] = 0xFFFF
			}
		}
		// Mix the fixed patterns into one call too, so lanes cannot
		// share state.
		mixed := [Lanes][]gf.Elem{random[0], zero[1], ones[2], random[3]}
		for _, in := range [][Lanes][]gf.Elem{random, zero, ones, mixed} {
			checkAgainstReference(t, n, m, in)
		}
	}
}

// TestExtractMatchesVandermondeProperty checks the kernel against the
// reference over random shapes and inputs.
func TestExtractMatchesVandermondeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		m := 1 + rng.Intn(n)
		var in [Lanes][]gf.Elem
		for w := range in {
			in[w] = make([]gf.Elem, n)
			for i := range in[w] {
				in[w][i] = gf.Elem(rng.Intn(gf.Order16))
			}
		}
		return checkAgainstReference(t, n, m, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkExtract condenses one 8-byte key word stream at the shape of the
// secure-circulant workload (n = 85 exchanged words, m = 17 keys).
func BenchmarkExtract(b *testing.B) {
	const n, m = 85, 17
	ex, err := New(testField, n, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]gf.Elem, Lanes*n)
	for i := range x {
		x[i] = gf.Elem(rng.Intn(gf.Order16))
	}
	dst := make([]gf.Elem, Lanes*m)
	b.ReportAllocs()
	for b.Loop() {
		ex.ExtractLanes(dst, x)
	}
}

// FuzzExtractLanes checks the kernel against the reference for fuzzed
// shapes (1 <= m <= n <= 200) and lanes. The seeds cover m = 1 (only the
// single-key pass), m = 2 (only the paired pass) and odd m > 1 (pairs, then
// the single-key tail).
func FuzzExtractLanes(f *testing.F) {
	for i, c := range [][2]int{{1, 1}, {5, 1}, {2, 2}, {9, 2}, {7, 3}, {85, 17}, {200, 199}} {
		f.Add(uint8(c[0]-1), uint8(c[1]-1), int64(i)) // n, m
	}
	f.Fuzz(func(t *testing.T, nb, mb uint8, seed int64) {
		n := 1 + int(nb)%200
		m := 1 + int(mb)%n
		rng := rand.New(rand.NewSource(seed))
		var in [Lanes][]gf.Elem
		for w := range in {
			in[w] = make([]gf.Elem, n)
			for i := range in[w] {
				in[w][i] = gf.Elem(rng.Intn(gf.Order16))
			}
		}
		checkAgainstReference(t, n, m, in)
	})
}
