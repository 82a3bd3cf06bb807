// Package gf implements arithmetic over the finite fields GF(2^8) and
// GF(2^16), together with the small linear-algebra toolkit (Vandermonde
// matrices, Gaussian elimination, rank) that the paper's compilers rely on.
//
// Elements of GF(2^k) are represented as unsigned integers whose bits are the
// coefficients of a polynomial over GF(2); addition is XOR and multiplication
// is carried out modulo a fixed primitive polynomial via log/antilog tables.
// A loop that multiplies many values by one fixed constant (a Reed-Solomon
// evaluation point in internal/ecc, an extractor output in internal/extract)
// uses that constant's MulTable instead.
package gf

import "fmt"

// Elem is a field element of GF(2^16). The subfield GF(2^8) is exposed via
// Field8 below; both share this representation.
type Elem uint16

// Order16 is the number of elements of GF(2^16).
const Order16 = 1 << 16

// Order8 is the number of elements of GF(2^8).
const Order8 = 1 << 8

// primPoly16 is a primitive polynomial for GF(2^16):
// x^16 + x^12 + x^3 + x + 1 (0x1100B), the CCSDS standard polynomial.
const primPoly16 = 0x1100B

// primPoly8 is a primitive polynomial for GF(2^8):
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the AES-adjacent Reed-Solomon polynomial.
const primPoly8 = 0x11D

// Field holds the log/antilog tables for a GF(2^k) instance.
type Field struct {
	// k is the extension degree (8 or 16).
	k int
	// order is 2^k.
	order int
	// exp[i] = g^i for the generator g = x; doubled length to avoid a mod
	// in Mul.
	exp []Elem
	// log[e] = discrete log of e base g; log[0] is unused.
	log []int
}

// NewField16 constructs GF(2^16). Table construction costs ~128k entries and
// should be done once and shared.
func NewField16() *Field { return newField(16, primPoly16) }

// NewField8 constructs GF(2^8).
func NewField8() *Field { return newField(8, primPoly8) }

func newField(k, poly int) *Field {
	order := 1 << k
	f := &Field{
		k:     k,
		order: order,
		exp:   make([]Elem, 2*order),
		log:   make([]int, order),
	}
	x := 1
	for i := 0; i < order-1; i++ {
		f.exp[i] = Elem(x)
		f.log[x] = i
		x <<= 1
		if x&order != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		// The polynomial is fixed and primitive; reaching this would mean a
		// programming error in the table construction.
		panic(fmt.Sprintf("gf: polynomial %#x is not primitive for k=%d", poly, k))
	}
	for i := order - 1; i < 2*order; i++ {
		f.exp[i] = f.exp[i-(order-1)]
	}
	return f
}

// K returns the extension degree k of GF(2^k).
func (f *Field) K() int { return f.k }

// Order returns the number of field elements, 2^k.
func (f *Field) Order() int { return f.order }

// Add returns a+b (= a-b) in GF(2^k).
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a*b in GF(2^k).
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics: division by
// zero is a programming error in all call sites (callers pivot on non-zero
// elements).
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[(f.order-1)-f.log[a]]
}

// Div returns a/b.
func (f *Field) Div(a, b Elem) Elem { return f.Mul(a, f.Inv(b)) }

// Pow returns a^e for e >= 0.
func (f *Field) Pow(a Elem, e int) Elem {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (f.log[a] * e) % (f.order - 1)
	return f.exp[le]
}

// Exp returns g^i for the field generator g.
func (f *Field) Exp(i int) Elem {
	i %= f.order - 1
	if i < 0 {
		i += f.order - 1
	}
	return f.exp[i]
}

// EvalPoly evaluates the polynomial with coefficients coeffs (coeffs[i] is
// the coefficient of x^i) at point x.
func (f *Field) EvalPoly(coeffs []Elem, x Elem) Elem {
	var acc Elem
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), coeffs[i])
	}
	return acc
}

// MulTable multiplies a field element by a fixed constant c:
// v·c = t[0][v&0xff] ^ t[1][v>>8]. Multiplying by c is GF(2)-linear in the
// bits of v, so the low and high bytes of v contribute independently and
// each 256-entry half is filled from 8 single-bit products. A table is
// 1 KiB and read-only once built. It replaces Field.Mul's zero checks and
// its three loads from the 768 KiB log/antilog tables of GF(2^16) with two
// loads from a table that stays in cache while a loop multiplies by the
// same constant.
type MulTable [2][256]Elem

// MulTable builds the constant-multiply table for c: the products of c with
// the k single-bit elements, then every other entry as the XOR of two
// entries with fewer bits set.
func (f *Field) MulTable(c Elem) MulTable {
	var t MulTable
	for h := range t {
		for k := 0; k < 8 && 8*h+k < f.k; k++ {
			t[h][1<<k] = f.Mul(c, Elem(1)<<(8*h+k))
		}
		for b := 1; b < 256; b++ {
			if low := b & -b; low != b {
				t[h][b] = t[h][b^low] ^ t[h][low]
			}
		}
	}
	return t
}

// Mul returns v·c for the table's constant c.
func (t *MulTable) Mul(v Elem) Elem { return t[0][byte(v)] ^ t[1][v>>8] }

// EvalPoly evaluates the polynomial with coefficients coeffs (coeffs[i] is
// the coefficient of x^i) at the table's constant, by Horner's rule. It
// equals Field.EvalPoly(coeffs, c).
func (t *MulTable) EvalPoly(coeffs []Elem) Elem {
	var acc Elem
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = t[0][byte(acc)] ^ t[1][acc>>8] ^ coeffs[i]
	}
	return acc
}
