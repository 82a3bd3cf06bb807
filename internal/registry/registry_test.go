package registry

import (
	"reflect"
	"testing"
)

func TestTable(t *testing.T) {
	tb := New[int]("pkg", "widget")
	tb.Register("b", 2)
	tb.Register("a", 1)
	gen := tb.Generation()
	tb.Register("b", 3) // replaces
	if v, err := tb.Get("b"); err != nil || v != 3 {
		t.Fatalf("Get(b) = %d, %v", v, err)
	}
	if tb.Generation() == gen {
		t.Fatal("replacing an entry left the generation unchanged")
	}
	if !tb.Has("a") || tb.Has("c") {
		t.Fatal("Has disagrees with the registered names")
	}
	gen = tb.Generation()
	tb.RegisterBuiltIn("a", 4)
	if v, _ := tb.Get("a"); v != 4 || !tb.BuiltIn("a") {
		t.Fatalf("RegisterBuiltIn(a): Get = %d, BuiltIn = %v", v, tb.BuiltIn("a"))
	}
	if tb.Generation() == gen {
		t.Fatal("RegisterBuiltIn left the generation unchanged")
	}
	if tb.BuiltIn("b") || tb.BuiltIn("c") {
		t.Fatal("an entry from Register, or a missing one, reads as built-in")
	}
	tb.Register("a", 1) // replaces the built-in entry
	if v, _ := tb.Get("a"); v != 1 || tb.BuiltIn("a") {
		t.Fatalf("Register(a) over a built-in: Get = %d, BuiltIn = %v", v, tb.BuiltIn("a"))
	}
	if got := tb.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names() = %v", got)
	}
	if err := tb.Check("a", "b"); err != nil {
		t.Fatalf("Check(known) = %v", err)
	}
	want := `pkg: unknown widget "c" (have [a b])`
	if _, err := tb.Get("c"); err == nil || err.Error() != want {
		t.Fatalf("Get(c) error = %v, want %s", err, want)
	}
	if err := tb.Check("a", "c", "d"); err == nil || err.Error() != want {
		t.Fatalf("Check error = %v, want %s (the first unknown name)", err, want)
	}
}

// TestKnownNamesDoNotAllocate pins that resolving and checking registered
// names is allocation-free: every served sweep request checks its spec's
// names through Check.
func TestKnownNamesDoNotAllocate(t *testing.T) {
	tb := New[int]("pkg", "widget")
	tb.Register("a", 1)
	tb.Register("b", 2)
	names := []string{"a", "b"}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tb.Get("a"); err != nil {
			t.Fatal(err)
		}
		if err := tb.Check(names...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Get and Check allocated %.1f times per call", n)
	}
}
