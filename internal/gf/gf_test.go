package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldGeneratorOrder16(t *testing.T) {
	f := NewField16()
	seen := make(map[Elem]bool, Order16)
	for i := 0; i < Order16-1; i++ {
		e := f.Exp(i)
		if seen[e] {
			t.Fatalf("generator repeats at power %d", i)
		}
		seen[e] = true
	}
	if len(seen) != Order16-1 {
		t.Fatalf("generator cycle has %d elements, want %d", len(seen), Order16-1)
	}
}

func TestFieldGeneratorOrder8(t *testing.T) {
	f := NewField8()
	seen := make(map[Elem]bool, Order8)
	for i := 0; i < Order8-1; i++ {
		seen[f.Exp(i)] = true
	}
	if len(seen) != Order8-1 {
		t.Fatalf("GF(2^8) generator cycle has %d elements, want %d", len(seen), Order8-1)
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	f := NewField16()
	mulAssoc := func(a, b, c Elem) bool {
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}
	if err := quick.Check(mulAssoc, nil); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}
	distrib := func(a, b, c Elem) bool {
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Errorf("multiplication not distributive: %v", err)
	}
	comm := func(a, b Elem) bool { return f.Mul(a, b) == f.Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}
	invOK := func(a Elem) bool {
		if a == 0 {
			return true
		}
		return f.Mul(a, f.Inv(a)) == 1
	}
	if err := quick.Check(invOK, nil); err != nil {
		t.Errorf("inverse broken: %v", err)
	}
}

func TestPow(t *testing.T) {
	f := NewField16()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := Elem(rng.Intn(Order16))
		e := rng.Intn(50)
		want := Elem(1)
		for i := 0; i < e; i++ {
			want = f.Mul(want, a)
		}
		if got := f.Pow(a, e); got != want {
			t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
		}
	}
}

func TestEvalPoly(t *testing.T) {
	f := NewField16()
	// p(x) = 3 + 5x + x^2 at x=2: 3 ^ Mul(5,2) ^ Mul(2, 2)... compute manually.
	coeffs := []Elem{3, 5, 1}
	x := Elem(2)
	want := f.Add(f.Add(3, f.Mul(5, x)), f.Mul(x, x))
	if got := f.EvalPoly(coeffs, x); got != want {
		t.Fatalf("EvalPoly = %d, want %d", got, want)
	}
}

func TestVandermondeRank(t *testing.T) {
	f := NewField16()
	// Any w rows of an n x w Vandermonde matrix are independent; in
	// particular the full matrix has rank w.
	for _, dims := range [][2]int{{5, 3}, {10, 10}, {20, 7}, {64, 32}} {
		n, w := dims[0], dims[1]
		m := Vandermonde(f, n, w)
		if got := m.Rank(); got != w {
			t.Fatalf("Vandermonde(%d,%d) rank = %d, want %d", n, w, got, w)
		}
	}
}

func TestVandermondeSubmatrixInvertible(t *testing.T) {
	f := NewField16()
	rng := rand.New(rand.NewSource(7))
	n, w := 24, 8
	m := Vandermonde(f, n, w)
	for trial := 0; trial < 25; trial++ {
		rows := rng.Perm(n)[:w]
		sub := NewMatrix(f, w, w)
		for i, r := range rows {
			for j := 0; j < w; j++ {
				sub.Set(i, j, m.At(r, j))
			}
		}
		if got := sub.Rank(); got != w {
			t.Fatalf("submatrix of rows %v has rank %d, want %d", rows, got, w)
		}
	}
}

func TestSolveLinearRoundTrip(t *testing.T) {
	f := NewField16()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(f, n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, Elem(rng.Intn(Order16)))
			}
		}
		if a.Rank() != n {
			continue // skip singular draws
		}
		x := make([]Elem, n)
		for i := range x {
			x[i] = Elem(rng.Intn(Order16))
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("SolveLinear failed on full-rank matrix: %v", err)
		}
		for i := range x {
			if got[i] != x[i] {
				t.Fatalf("trial %d: solution mismatch at %d: got %d want %d", trial, i, got[i], x[i])
			}
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	f := NewField16()
	a := NewMatrix(f, 2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	if _, err := SolveLinear(a, []Elem{1, 2}); err == nil {
		t.Fatal("expected error on singular matrix")
	}
}

func TestTransposeMulVec(t *testing.T) {
	f := NewField16()
	m := Vandermonde(f, 4, 3)
	x := []Elem{1, 2, 3, 4}
	got := m.TransposeMulVec(x)
	for j := 0; j < 3; j++ {
		var want Elem
		for i := 0; i < 4; i++ {
			want ^= f.Mul(m.At(i, j), x[i])
		}
		if got[j] != want {
			t.Fatalf("TransposeMulVec[%d] = %d, want %d", j, got[j], want)
		}
	}
}

func BenchmarkMul16(b *testing.B) {
	f := NewField16()
	var acc Elem = 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, Elem(i)|1)
	}
	_ = acc
}

func TestDivAndExpWrap(t *testing.T) {
	f := NewField16()
	for _, pair := range [][2]Elem{{6, 3}, {12345, 999}, {1, 65535}} {
		q := f.Div(pair[0], pair[1])
		if f.Mul(q, pair[1]) != pair[0] {
			t.Fatalf("Div(%d,%d) inconsistent", pair[0], pair[1])
		}
	}
	// Exp wraps negative and over-range exponents.
	if f.Exp(-1) != f.Exp(Order16-2) {
		t.Fatal("negative Exp wrap wrong")
	}
	if f.Exp(Order16-1) != f.Exp(0) {
		t.Fatal("Exp period wrong")
	}
}

func TestField8Arithmetic(t *testing.T) {
	f := NewField8()
	if f.Order() != Order8 || f.K() != 8 {
		t.Fatal("field parameters wrong")
	}
	for a := 1; a < Order8; a++ {
		if f.Mul(Elem(a), f.Inv(Elem(a))) != 1 {
			t.Fatalf("GF(2^8) inverse broken at %d", a)
		}
	}
}

// TestMulTableExhaustive16 compares MulTable.Mul with Field.Mul on every
// GF(2^16) operand, for the constants 0, 1, g, g^-1 and a fixed
// pseudo-random set.
func TestMulTableExhaustive16(t *testing.T) {
	f := NewField16()
	consts := []Elem{0, 1, f.Exp(1), f.Inv(f.Exp(1))}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		consts = append(consts, Elem(rng.Intn(Order16)))
	}
	for _, c := range consts {
		tab := f.MulTable(c)
		for v := 0; v < Order16; v++ {
			if got, want := tab.Mul(Elem(v)), f.Mul(Elem(v), c); got != want {
				t.Fatalf("MulTable(%d).Mul(%d) = %d, want %d", c, v, got, want)
			}
		}
	}
}

// TestMulTableExhaustive8 does the same on GF(2^8) for every constant and
// operand; its tables fill only the low half (8*h+k < K).
func TestMulTableExhaustive8(t *testing.T) {
	f := NewField8()
	for c := 0; c < Order8; c++ {
		tab := f.MulTable(Elem(c))
		for v := 0; v < Order8; v++ {
			if got, want := tab.Mul(Elem(v)), f.Mul(Elem(v), Elem(c)); got != want {
				t.Fatalf("GF(2^8) MulTable(%d).Mul(%d) = %d, want %d", c, v, got, want)
			}
		}
	}
}

func TestMulTableEvalPolyQuick(t *testing.T) {
	f := NewField16()
	same := func(coeffs []Elem, x Elem) bool {
		tab := f.MulTable(x)
		return tab.EvalPoly(coeffs) == f.EvalPoly(coeffs, x)
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
}
