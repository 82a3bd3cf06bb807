// Package ecc implements Reed-Solomon error-correcting codes over GF(2^16)
// (Theorem 1.8 of the paper) with Berlekamp-Welch decoding from corrupted
// codewords. ECCSafeBroadcast (Section 3.2.1) encodes the dominating-mismatch
// list into one share per spanning tree and decodes the closest codeword at
// every node; the code here provides exactly that interface. Every
// evaluation point of a Code has its own gf.MulTable, built once in NewCode,
// so encoding, interpolation and the decoder's matrix build multiply by a
// point with two table loads.
package ecc

import (
	"errors"
	"fmt"

	"mobilecongest/internal/gf"
)

// Code is an [n, k] Reed-Solomon code over GF(2^16): messages are k field
// symbols, codewords are n symbols obtained by evaluating the degree-(k-1)
// message polynomial at the points g^1 ... g^n. Its relative distance is
// (n-k+1)/n and Berlekamp-Welch corrects up to (n-k)/2 symbol errors.
//
// A Code is read-only after NewCode, so one instance is safe for concurrent
// use by any number of goroutines. It holds one 1 KiB table per position.
type Code struct {
	f *gf.Field
	n int
	k int
	// points[i] is the evaluation point of codeword position i.
	points []gf.Elem
	// tabs[i] multiplies by points[i].
	tabs []gf.MulTable
}

// ErrDecodeFailure is returned when the received word is too corrupted to
// identify a unique codeword.
var ErrDecodeFailure = errors.New("ecc: too many errors to decode")

// NewCode constructs an [n, k] Reed-Solomon code. It requires
// 1 <= k <= n < 2^16.
func NewCode(f *gf.Field, n, k int) (*Code, error) {
	if k < 1 || k > n || n >= f.Order() {
		return nil, fmt.Errorf("ecc: invalid parameters n=%d k=%d for field order %d", n, k, f.Order())
	}
	c := &Code{f: f, n: n, k: k, points: make([]gf.Elem, n), tabs: make([]gf.MulTable, n)}
	for i := range c.points {
		c.points[i] = f.Exp(i + 1)
		c.tabs[i] = f.MulTable(c.points[i])
	}
	return c, nil
}

// N returns the block length.
func (c *Code) N() int { return c.n }

// K returns the message length.
func (c *Code) K() int { return c.k }

// MaxErrors returns the number of symbol errors the decoder corrects,
// floor((n-k)/2).
func (c *Code) MaxErrors() int { return (c.n - c.k) / 2 }

// Encode maps a k-symbol message to its n-symbol codeword.
func (c *Code) Encode(msg []gf.Elem) ([]gf.Elem, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("ecc: message length %d, want %d", len(msg), c.k)
	}
	out := make([]gf.Elem, c.n)
	for i := range c.tabs {
		out[i] = c.tabs[i].EvalPoly(msg)
	}
	return out, nil
}

// Decode recovers the k-symbol message from a received word with at most
// MaxErrors corrupted symbols, using the Berlekamp-Welch algorithm. The
// received word must have length n; erasures are not modelled (a missing
// share should be filled with 0 and counted as a possible error).
func (c *Code) Decode(recv []gf.Elem) ([]gf.Elem, error) {
	if len(recv) != c.n {
		return nil, fmt.Errorf("ecc: received length %d, want %d", len(recv), c.n)
	}
	// Fast path: received word may already be a codeword.
	if msg, err := c.interpolateExact(recv); err == nil {
		return msg, nil
	}
	e := c.MaxErrors()
	// Berlekamp-Welch: find E(x) of degree e (monic) and Q(x) of degree
	// < k+e with Q(x_i) = y_i * E(x_i) for all i. Then message poly is Q/E.
	// Unknowns: e coefficients of E (low-order; leading coeff fixed to 1)
	// plus k+e coefficients of Q -> k+2e unknowns, n >= k+2e equations.
	nUnknowns := c.k + 2*e
	a := gf.NewMatrix(c.f, c.n, nUnknowns)
	b := make([]gf.Elem, c.n)
	for i := 0; i < c.n; i++ {
		x := &c.tabs[i]
		// Q coefficients: q_0 ... q_{k+e-1}, columns 0..k+e-1.
		pw := gf.Elem(1)
		for j := 0; j < c.k+e; j++ {
			a.Set(i, j, pw)
			pw = x.Mul(pw)
		}
		// E coefficients: e_0 ... e_{e-1}, columns k+e .. k+2e-1; the
		// equation is Q(x) - y*E(x) = 0 with E monic of degree e, i.e.
		// Q(x) = y*(x^e + sum e_j x^j)  =>
		// Q(x) + y*sum e_j x^j = y*x^e  (char 2: minus is plus).
		// yp runs through y*x^j and ends at y*x^e.
		yp := recv[i]
		for j := 0; j < e; j++ {
			a.Set(i, c.k+e+j, yp)
			yp = x.Mul(yp)
		}
		b[i] = yp
	}
	sol, err := solveLeastOverdetermined(c.f, a, b)
	if err != nil {
		return nil, ErrDecodeFailure
	}
	q := sol[:c.k+e]
	eCoeffs := make([]gf.Elem, e+1)
	copy(eCoeffs, sol[c.k+e:])
	eCoeffs[e] = 1 // monic
	quot, err := polyDiv(c.f, q, eCoeffs)
	if err != nil {
		return nil, ErrDecodeFailure
	}
	if len(quot) > c.k {
		return nil, ErrDecodeFailure
	}
	msg := make([]gf.Elem, c.k)
	copy(msg, quot)
	// Verify: the decoded message must be within MaxErrors of recv.
	cw, err := c.Encode(msg)
	if err != nil {
		return nil, err
	}
	if Hamming(cw, recv) > e {
		return nil, ErrDecodeFailure
	}
	return msg, nil
}

// interpolateExact treats recv as error-free, interpolates the message from
// the first k positions, and succeeds only if the re-encoding matches recv
// at every other position. The first k points are distinct, so the
// interpolating polynomial of degree < k is unique; Newton's divided
// differences find it in O(k^2) field operations. The divided differences
// divide by the k(k-1)/2 sums x_i + x_{i-j}; a table per sum would take
// about 3 MiB at k=79, so they keep Field.Div. The expansion and the check
// multiply by the points' tables.
func (c *Code) interpolateExact(recv []gf.Elem) ([]gf.Elem, error) {
	f, k, xs := c.f, c.k, c.points
	// Divided differences in place: dd[i] becomes f[x_0, ..., x_i].
	dd := make([]gf.Elem, k)
	copy(dd, recv[:k])
	for j := 1; j < k; j++ {
		for i := k - 1; i >= j; i-- {
			dd[i] = f.Div(f.Add(dd[i], dd[i-1]), f.Add(xs[i], xs[i-j]))
		}
	}
	// Expand the Newton form to monomial coefficients by Horner's rule:
	// p <- p*(x - x_i) + dd[i], with minus equal to plus in characteristic 2.
	msg := make([]gf.Elem, k)
	msg[0] = dd[k-1]
	for i := k - 2; i >= 0; i-- {
		deg := k - 2 - i // degree of p before this step
		x := &c.tabs[i]
		msg[deg+1] = msg[deg]
		for d := deg; d >= 1; d-- {
			msg[d] = msg[d-1] ^ x.Mul(msg[d])
		}
		msg[0] = x.Mul(msg[0]) ^ dd[i]
	}
	for i := k; i < c.n; i++ {
		if c.tabs[i].EvalPoly(msg) != recv[i] {
			return nil, ErrDecodeFailure
		}
	}
	return msg, nil
}

// Hamming returns the Hamming distance between two equal-length words
// (Definition 2 of the paper).
func Hamming(a, b []gf.Elem) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// solveLeastOverdetermined solves the overdetermined consistent system
// A x = b by Gaussian elimination, returning any solution (free variables set
// to zero). It errors if the system is inconsistent.
func solveLeastOverdetermined(f *gf.Field, a *gf.Matrix, b []gf.Elem) ([]gf.Elem, error) {
	rows, cols := a.Rows(), a.Cols()
	w := a.Clone()
	rhs := make([]gf.Elem, rows)
	copy(rhs, b)
	pivotCol := make([]int, 0, cols)
	r := 0
	for col := 0; col < cols && r < rows; col++ {
		pivot := -1
		for i := r; i < rows; i++ {
			if w.At(i, col) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		swapRowsWithRHS(w, rhs, pivot, r)
		inv := f.Inv(w.At(r, col))
		for j := 0; j < cols; j++ {
			w.Set(r, j, f.Mul(w.At(r, j), inv))
		}
		rhs[r] = f.Mul(rhs[r], inv)
		for i := 0; i < rows; i++ {
			if i != r && w.At(i, col) != 0 {
				factor := w.At(i, col)
				for j := 0; j < cols; j++ {
					w.Set(i, j, f.Add(w.At(i, j), f.Mul(factor, w.At(r, j))))
				}
				rhs[i] = f.Add(rhs[i], f.Mul(factor, rhs[r]))
			}
		}
		pivotCol = append(pivotCol, col)
		r++
	}
	// Inconsistency check: zero rows with non-zero RHS.
	for i := r; i < rows; i++ {
		if rhs[i] != 0 {
			return nil, errors.New("ecc: inconsistent system")
		}
	}
	x := make([]gf.Elem, cols)
	for i, col := range pivotCol {
		x[col] = rhs[i]
	}
	return x, nil
}

func swapRowsWithRHS(m *gf.Matrix, rhs []gf.Elem, i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.Cols(); c++ {
		vi, vj := m.At(i, c), m.At(j, c)
		m.Set(i, c, vj)
		m.Set(j, c, vi)
	}
	rhs[i], rhs[j] = rhs[j], rhs[i]
}

// polyDiv divides polynomial num by den, returning the quotient. It errors
// if the division leaves a non-zero remainder (which signals a decoding
// failure in Berlekamp-Welch).
func polyDiv(f *gf.Field, num, den []gf.Elem) ([]gf.Elem, error) {
	num = trimPoly(num)
	den = trimPoly(den)
	if len(den) == 0 {
		return nil, errors.New("ecc: division by zero polynomial")
	}
	if len(num) < len(den) {
		if len(num) == 0 {
			return []gf.Elem{0}, nil
		}
		return nil, errors.New("ecc: degree underflow")
	}
	rem := make([]gf.Elem, len(num))
	copy(rem, num)
	quot := make([]gf.Elem, len(num)-len(den)+1)
	dLead := den[len(den)-1]
	for i := len(rem) - 1; i >= len(den)-1; i-- {
		if rem[i] == 0 {
			continue
		}
		coef := f.Div(rem[i], dLead)
		quot[i-(len(den)-1)] = coef
		for j := 0; j < len(den); j++ {
			rem[i-(len(den)-1)+j] ^= f.Mul(coef, den[j])
		}
	}
	for _, r := range rem {
		if r != 0 {
			return nil, errors.New("ecc: non-zero remainder")
		}
	}
	return quot, nil
}

func trimPoly(p []gf.Elem) []gf.Elem {
	i := len(p)
	for i > 0 && p[i-1] == 0 {
		i--
	}
	return p[:i]
}
