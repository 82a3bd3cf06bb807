package prime

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMul61AgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := new(big.Int).SetUint64(P61)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % P61
		b := rng.Uint64() % P61
		got := Mul61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Fatalf("Mul61(%d,%d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

func TestMod61Quick(t *testing.T) {
	f := func(x uint64) bool {
		return Mod61(x) == x%P61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMod31Quick(t *testing.T) {
	f := func(x uint64) bool {
		return Mod31(x) == x%P31
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Values whose fold lands exactly on P31 (it once looped forever there).
	for _, x := range []uint64{P31, 2 * P31, 1<<32 - 2, 1<<62 - 1, 1<<64 - 1, P31 << 31} {
		if got := Mod31(x); got != x%P31 {
			t.Errorf("Mod31(%#x) = %d, want %d", x, got, x%P31)
		}
	}
}

func TestInv61(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()%(P61-1) + 1
		if Mul61(a, Inv61(a)) != 1 {
			t.Fatalf("Inv61(%d) wrong", a)
		}
	}
	if Inv61(0) != 0 {
		t.Fatal("Inv61(0) should be 0")
	}
}

func TestInv31(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()%(P31-1) + 1
		if Mul31(a, Inv31(a)) != 1 {
			t.Fatalf("Inv31(%d) wrong", a)
		}
	}
}

func TestPow61(t *testing.T) {
	// Fermat: a^(p-1) = 1.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		a := rng.Uint64()%(P61-1) + 1
		if Pow61(a, P61-1) != 1 {
			t.Fatalf("Fermat fails for %d", a)
		}
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64()%P61, rng.Uint64()%P61
		if Sub61(Add61(a, b), b) != a {
			t.Fatalf("Add61/Sub61 not inverse for %d, %d", a, b)
		}
		a31, b31 := rng.Uint64()%P31, rng.Uint64()%P31
		if Sub31(Add31(a31, b31), b31) != a31 {
			t.Fatalf("Add31/Sub31 not inverse for %d, %d", a31, b31)
		}
	}
}

func TestCRTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p61 := new(big.Int).SetUint64(P61)
	p31 := new(big.Int).SetUint64(P31)
	for i := 0; i < 500; i++ {
		// Pick a random x < 2^90 and verify CRT reconstructs it from its
		// residues.
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 90))
		r61 := new(big.Int).Mod(x, p61).Uint64()
		r31 := new(big.Int).Mod(x, p31).Uint64()
		hi, lo := CRT(r61, r31)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Add(got, new(big.Int).SetUint64(lo))
		if got.Cmp(x) != 0 {
			t.Fatalf("CRT round trip failed: got %s want %s", got, x)
		}
	}
}
