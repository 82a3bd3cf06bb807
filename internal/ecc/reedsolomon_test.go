package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilecongest/internal/gf"
)

var testField = gf.NewField16()

func TestEncodeDecodeClean(t *testing.T) {
	c, err := NewCode(testField, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []gf.Elem{7, 0, 65535, 1234}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("clean decode mismatch at %d: got %d want %d", i, got[i], msg[i])
		}
	}
}

func TestDecodeWithErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(40)
		k := 1 + rng.Intn(n/2)
		c, err := NewCode(testField, n, k)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]gf.Elem, k)
		for i := range msg {
			msg[i] = gf.Elem(rng.Intn(gf.Order16))
		}
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt up to MaxErrors positions.
		nerr := rng.Intn(c.MaxErrors() + 1)
		positions := rng.Perm(n)[:nerr]
		recv := make([]gf.Elem, n)
		copy(recv, cw)
		for _, p := range positions {
			recv[p] ^= gf.Elem(1 + rng.Intn(gf.Order16-1))
		}
		got, err := c.Decode(recv)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d errs=%d): decode failed: %v", trial, n, k, nerr, err)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("trial %d: decode wrong at %d", trial, i)
			}
		}
	}
}

func TestDecodeBeyondCapacityDetected(t *testing.T) {
	c, err := NewCode(testField, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	msg := []gf.Elem{1, 2, 3, 4}
	cw, _ := c.Encode(msg)
	// Corrupt far more than MaxErrors=3: 8 positions with random values.
	// Decoding must either fail or return *some* message — but it must never
	// silently return a wrong message while claiming a valid nearby
	// codeword; we check the distance promise instead.
	recv := make([]gf.Elem, len(cw))
	copy(recv, cw)
	for _, p := range rng.Perm(10)[:8] {
		recv[p] ^= gf.Elem(1 + rng.Intn(gf.Order16-1))
	}
	got, err := c.Decode(recv)
	if err == nil {
		// If it decoded, the result must be within MaxErrors of recv.
		cw2, _ := c.Encode(got)
		if Hamming(cw2, recv) > c.MaxErrors() {
			t.Fatal("decoder returned codeword outside its distance promise")
		}
	}
}

func TestHamming(t *testing.T) {
	a := []gf.Elem{1, 2, 3}
	b := []gf.Elem{1, 0, 3}
	if Hamming(a, b) != 1 {
		t.Fatalf("Hamming = %d, want 1", Hamming(a, b))
	}
	if Hamming(a, a) != 0 {
		t.Fatal("Hamming(a,a) != 0")
	}
}

func TestInvalidParams(t *testing.T) {
	if _, err := NewCode(testField, 4, 5); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := NewCode(testField, 70000, 4); err == nil {
		t.Fatal("n >= field order accepted")
	}
	if _, err := NewCode(testField, 4, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c, _ := NewCode(testField, 8, 3)
	if _, err := c.Encode([]gf.Elem{1}); err == nil {
		t.Fatal("wrong message length accepted")
	}
	if _, err := c.Decode([]gf.Elem{1}); err == nil {
		t.Fatal("wrong received length accepted")
	}
}

func TestRoundTripQuick(t *testing.T) {
	c, _ := NewCode(testField, 16, 5)
	f := func(a, b, cc, d, e gf.Elem, seed int64) bool {
		msg := []gf.Elem{a, b, cc, d, e}
		cw, err := c.Encode(msg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		nerr := rng.Intn(c.MaxErrors() + 1)
		for _, p := range rng.Perm(16)[:nerr] {
			cw[p] ^= gf.Elem(1 + rng.Intn(gf.Order16-1))
		}
		got, err := c.Decode(cw)
		if err != nil {
			return false
		}
		for i := range msg {
			if got[i] != msg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeWithErrors(b *testing.B) {
	c, _ := NewCode(testField, 64, 16)
	rng := rand.New(rand.NewSource(1))
	msg := make([]gf.Elem, 16)
	for i := range msg {
		msg[i] = gf.Elem(rng.Intn(gf.Order16))
	}
	cw, _ := c.Encode(msg)
	recv := make([]gf.Elem, len(cw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(recv, cw)
		for _, p := range rng.Perm(64)[:c.MaxErrors()] {
			recv[p] ^= gf.Elem(1 + rng.Intn(gf.Order16-1))
		}
		if _, err := c.Decode(recv); err != nil {
			b.Fatal(err)
		}
	}
}

// gaussInterpolate is the reference the Newton fast path replaced: solve the
// k x k Vandermonde system over the first k points by Gaussian elimination,
// then accept only if the re-encoding matches recv everywhere.
func gaussInterpolate(c *Code, recv []gf.Elem) ([]gf.Elem, error) {
	a := gf.NewMatrix(c.f, c.k, c.k)
	b := make([]gf.Elem, c.k)
	for i := 0; i < c.k; i++ {
		pw := gf.Elem(1)
		for j := 0; j < c.k; j++ {
			a.Set(i, j, pw)
			pw = c.f.Mul(pw, c.points[i])
		}
		b[i] = recv[i]
	}
	msg, err := gf.SolveLinear(a, b)
	if err != nil {
		return nil, err
	}
	cw, err := c.Encode(msg)
	if err != nil {
		return nil, err
	}
	if Hamming(cw, recv) != 0 {
		return nil, ErrDecodeFailure
	}
	return msg, nil
}

// TestInterpolateExactMatchesGauss: the O(k^2) Newton fast path returns the
// same message as the Gaussian-elimination solve on codewords, and rejects
// exactly the words that solve rejects, including k=1 and the correction
// plan's geometry (n=160, k=79).
func TestInterpolateExactMatchesGauss(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nk := range [][2]int{{1, 1}, {5, 1}, {8, 3}, {16, 5}, {16, 16}, {64, 16}, {160, 79}} {
		c, err := NewCode(testField, nk[0], nk[1])
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			msg := make([]gf.Elem, c.k)
			for i := range msg {
				msg[i] = gf.Elem(rng.Intn(gf.Order16))
			}
			recv, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			if trial%2 == 1 { // one symbol error anywhere
				recv[rng.Intn(c.n)] ^= gf.Elem(1 + rng.Intn(gf.Order16-1))
			}
			got, gotErr := c.interpolateExact(recv)
			want, wantErr := gaussInterpolate(c, recv)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("n=%d k=%d trial %d: newton err %v, gauss err %v", c.n, c.k, trial, gotErr, wantErr)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d trial %d: symbol %d newton %d, gauss %d", c.n, c.k, trial, i, got[i], want[i])
				}
			}
			if trial%2 == 0 {
				for i := range msg {
					if got[i] != msg[i] {
						t.Fatalf("n=%d k=%d trial %d: clean codeword decoded wrong at %d", c.n, c.k, trial, i)
					}
				}
			}
		}
	}
}

// TestEncodeMatchesEvalPoly checks the tabled encoder symbol by symbol
// against Field.EvalPoly at the position's point g^(i+1), for the correction
// and seed geometries of the hardened clique and the edge cases k=n and k=1.
func TestEncodeMatchesEvalPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nk := range [][2]int{{160, 79}, {16, 4}, {12, 12}, {9, 1}} {
		c, err := NewCode(testField, nk[0], nk[1])
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			msg := make([]gf.Elem, c.K())
			for i := range msg {
				msg[i] = gf.Elem(rng.Intn(gf.Order16))
			}
			cw, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range cw {
				if want := testField.EvalPoly(msg, testField.Exp(i+1)); got != want {
					t.Fatalf("[%d,%d] trial %d: symbol %d = %d, want %d", c.N(), c.K(), trial, i, got, want)
				}
			}
		}
	}
}

// benchCorrection returns the [160,79] code of the hardened-clique f=2
// correction plan and one random codeword of it.
func benchCorrection(b *testing.B) (*Code, []gf.Elem, []gf.Elem) {
	c, err := NewCode(testField, 160, 79)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	msg := make([]gf.Elem, c.K())
	for i := range msg {
		msg[i] = gf.Elem(rng.Intn(gf.Order16))
	}
	cw, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	return c, msg, cw
}

func BenchmarkEncode(b *testing.B) {
	c, msg, _ := benchCorrection(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	c, _, cw := benchCorrection(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecode checks the decoder's two promises on an [max(n,1), 1+k%len]
// code. data supplies symbols two bytes at a time (zero once exhausted):
// first the message and the corruption, then an arbitrary received word.
//   - A codeword with at most MaxErrors corrupted symbols decodes to its
//     message.
//   - An arbitrary word never panics, and a message Decode returns
//     re-encodes to within MaxErrors of that word.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(16), uint8(4), []byte("seed plan"))
	f.Add(uint8(160), uint8(78), []byte{0xff, 0x00, 0x12, 0x34, 0x56})
	f.Add(uint8(12), uint8(11), []byte{})
	f.Add(uint8(7), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, n, k uint8, data []byte) {
		c, err := NewCode(testField, max(int(n), 1), 1+int(k)%max(int(n), 1))
		if err != nil {
			t.Fatal(err)
		}
		next := func() gf.Elem {
			var s gf.Elem
			if len(data) >= 2 {
				s, data = gf.Elem(data[0])<<8|gf.Elem(data[1]), data[2:]
			}
			return s
		}
		msg := make([]gf.Elem, c.K())
		for i := range msg {
			msg[i] = next()
		}
		recv, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		// Each corruption is a position and an XOR mask; a zero mask or a
		// repeated position only lowers the error count.
		for e := 0; e < c.MaxErrors(); e++ {
			pos, mask := int(next())%c.N(), next()
			recv[pos] ^= mask
		}
		got, err := c.Decode(recv)
		if err != nil {
			t.Fatalf("[%d,%d]: %d errors or fewer: %v", c.N(), c.K(), c.MaxErrors(), err)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("[%d,%d]: decoded symbol %d = %d, want %d", c.N(), c.K(), i, got[i], msg[i])
			}
		}

		word := make([]gf.Elem, c.N())
		for i := range word {
			word[i] = next()
		}
		got, err = c.Decode(word)
		if err != nil {
			return
		}
		cw, err := c.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if d := Hamming(cw, word); d > c.MaxErrors() {
			t.Fatalf("[%d,%d]: decoded message re-encodes %d symbols from the word, MaxErrors %d", c.N(), c.K(), d, c.MaxErrors())
		}
	})
}
