// Package prime provides arithmetic modulo the Mersenne primes 2^61-1 and
// 2^31-1, plus the CRT combination used by the one-sparse recovery triples in
// the sketching toolkit (Tool 3 of the paper). Both moduli admit fast
// reduction; their product exceeds 2^91, enough to encode a directed-edge
// identifier together with a 64-bit message payload.
package prime

import "math/bits"

// P61 is the Mersenne prime 2^61 - 1.
const P61 uint64 = (1 << 61) - 1

// P31 is the Mersenne prime 2^31 - 1.
const P31 uint64 = (1 << 31) - 1

// Mod61 reduces x modulo 2^61-1.
func Mod61(x uint64) uint64 {
	x = (x >> 61) + (x & P61)
	if x >= P61 {
		x -= P61
	}
	return x
}

// Add61 returns (a+b) mod 2^61-1 for a, b already reduced.
func Add61(a, b uint64) uint64 {
	s := a + b
	if s >= P61 {
		s -= P61
	}
	return s
}

// Sub61 returns (a-b) mod 2^61-1 for a, b already reduced.
func Sub61(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P61 - b
}

// Mul61 returns (a*b) mod 2^61-1 using 128-bit intermediate arithmetic.
func Mul61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo; 2^61 === 1 (mod p).
	r := Mod61(lo&P61) + Mod61((lo>>61)|(hi<<3))
	if r >= P61 {
		r -= P61
	}
	return r
}

// Pow61 returns base^e mod 2^61-1.
func Pow61(base, e uint64) uint64 {
	base = Mod61(base)
	result := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			result = Mul61(result, base)
		}
		base = Mul61(base, base)
		e >>= 1
	}
	return result
}

// Inv61 returns the multiplicative inverse mod 2^61-1 (p is prime, so
// a^(p-2) works). Inv61(0) returns 0.
func Inv61(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return Pow61(a, P61-2)
}

// Mod31 reduces x modulo 2^31-1. Folding maps P31 to itself, so the loop
// stops there and the one value congruent to 0 is mapped by hand.
func Mod31(x uint64) uint64 {
	for x > P31 {
		x = (x >> 31) + (x & P31)
	}
	if x == P31 {
		return 0
	}
	return x
}

// Add31 returns (a+b) mod 2^31-1 for reduced inputs.
func Add31(a, b uint64) uint64 {
	s := a + b
	if s >= P31 {
		s -= P31
	}
	return s
}

// Sub31 returns (a-b) mod 2^31-1 for reduced inputs.
func Sub31(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P31 - b
}

// Mul31 returns (a*b) mod 2^31-1 for reduced inputs.
func Mul31(a, b uint64) uint64 { return Mod31(a * b) }

// Inv31 returns the multiplicative inverse mod 2^31-1; Inv31(0) returns 0.
func Inv31(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	result := uint64(1)
	base := Mod31(a)
	e := P31 - 2
	for e > 0 {
		if e&1 == 1 {
			result = Mul31(result, base)
		}
		base = Mul31(base, base)
		e >>= 1
	}
	return result
}

// CRT reconstructs the unique x in [0, P61*P31) with x === r61 (mod P61) and
// x === r31 (mod P31), returning it as (hi, lo) 128-bit pair collapsed into
// hi*2^64+lo. Since P61*P31 < 2^92 the result fits comfortably.
func CRT(r61, r31 uint64) (hi, lo uint64) {
	// x = r61 + P61 * t where t = (r31 - r61) * P61^{-1} mod P31.
	inv := Inv31(Mod31(P61)) // P61^{-1} mod P31
	diff := Sub31(Mod31(r31), Mod31(r61))
	t := Mul31(diff, inv)
	hi, lo = bits.Mul64(P61, t)
	var carry uint64
	lo, carry = bits.Add64(lo, r61, 0)
	hi += carry
	return hi, lo
}
