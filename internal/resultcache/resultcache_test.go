package resultcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var stringCodec = Codec[string]{
	Encode: func(s string) ([]byte, error) { return json.Marshal(s) },
	Decode: func(b []byte) (string, error) {
		var s string
		err := json.Unmarshal(b, &s)
		return s, err
	},
}

func key(i int) Key { return Key{Label: fmt.Sprintf("cell-%d", i), Seed: int64(i), Engine: "step"} }

func TestGetPutCounters(t *testing.T) {
	c := New(0, "v1", stringCodec)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key(1), "one"); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(key(1))
	if !ok || v != "one" {
		t.Fatalf("got %q, %v", v, ok)
	}
	// Same label, different seed and different engine are distinct addresses.
	if _, ok := c.Get(Key{Label: "cell-1", Seed: 2, Engine: "step"}); ok {
		t.Fatal("seed is not part of the address")
	}
	if _, ok := c.Get(Key{Label: "cell-1", Seed: 1, Engine: "goroutine"}); ok {
		t.Fatal("engine is not part of the address")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 3 || s.Puts != 1 || s.Entries != 1 || s.Version != "v1" {
		t.Fatalf("stats = %+v", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("bytes accounting missing: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget for roughly three entries; keys/values are same-sized so the
	// accounting is uniform.
	one := entrySize(fullKey{Key: key(0), Version: "v1"}, len(`"val-0"`))
	c := New(3*one, "v1", stringCodec)
	for i := 0; i < 3; i++ {
		if err := c.Put(key(i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("warm entry missing")
	}
	if err := c.Put(key(3), "val-3"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU entry survived past the budget")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 || s.Bytes > s.MaxBytes {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOversizeValueNotAdmitted(t *testing.T) {
	c := New(64, "v1", stringCodec)
	if err := c.Put(key(1), strings.Repeat("x", 1024)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("entry bigger than the whole budget was admitted")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := New(0, "v1", stringCodec)
	if err := c.Put(key(1), "first"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(1), "second"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(key(1)); v != "second" {
		t.Fatalf("got %q", v)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("replacement duplicated the entry: %+v", s)
	}
}

func TestSetVersionInvalidates(t *testing.T) {
	c := New(0, "v1", stringCodec)
	if err := c.Put(key(1), "one"); err != nil {
		t.Fatal(err)
	}
	c.SetVersion("v2")
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("v1 entry served under v2")
	}
	if err := c.Put(key(1), "two"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(key(1)); v != "two" {
		t.Fatalf("got %q", v)
	}
	c.SetVersion("v1")
	if v, ok := c.Get(key(1)); !ok || v != "one" {
		t.Fatalf("v1 entry lost after version round-trip: %q, %v", v, ok)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(key(i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite one key: the newest line must win on reload.
	if err := c.Put(key(2), "rewritten"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(0, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("val-%d", i)
		if i == 2 {
			want = "rewritten"
		}
		if v, ok := c2.Get(key(i)); !ok || v != want {
			t.Fatalf("entry %d: got %q, %v (want %q)", i, v, ok, want)
		}
	}
	if s := c2.Stats(); s.DiskLoaded != 5 || s.Entries != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskTierVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, "old", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(1), "stale"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(0, "new", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get(key(1)); ok {
		t.Fatal("stale-version entry served by new code")
	}
	if s := c2.Stats(); s.DiskSkipped != 1 || s.DiskLoaded != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskTierTornTailIgnored tears the file's tail as a crash would (a
// line cut short before its newline, or a corrupt line) and checks that
// Open serves the intact entries and skips the torn line, and that entries
// appended after it survive the next restart: the torn line is skipped and
// counted, not the end of the file.
func TestDiskTierTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(key(i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, diskFileName)
	for name, torn := range map[string]string{
		"no-newline":   `{"version":"v1","label":"cell-9","seed":9,"eng`,
		"corrupt-line": "{\"version\":\"v1\",不完整\n",
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(append([]byte(nil), data...), torn...), 0o644); err != nil {
				t.Fatal(err)
			}
			// Restore the intact file for the next subtest.
			defer func() {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			check := func(label string, c *Cache[string], entries int) {
				t.Helper()
				for i := 0; i < entries; i++ {
					if v, ok := c.Get(key(i)); !ok || v != fmt.Sprintf("val-%d", i) {
						t.Fatalf("%s: entry %d lost to torn tail: %q, %v", label, i, v, ok)
					}
				}
				if _, ok := c.Get(key(9)); ok {
					t.Fatalf("%s: torn tail entry served", label)
				}
				if s := c.Stats(); s.DiskLoaded != entries || s.DiskSkipped != 1 {
					t.Fatalf("%s: loaded %d and skipped %d lines, want %d and 1", label, s.DiskLoaded, s.DiskSkipped, entries)
				}
			}
			c2, err := Open(0, "v1", stringCodec, dir)
			if err != nil {
				t.Fatal(err)
			}
			check("open", c2, 3)
			for i := 3; i < 6; i++ {
				if err := c2.Put(key(i), fmt.Sprintf("val-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c2.Close(); err != nil {
				t.Fatal(err)
			}
			c3, err := Open(0, "v1", stringCodec, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c3.Close()
			check("reopen after appends", c3, 6)
		})
	}
}

func TestDiskTierBudgetRespectedOnLoad(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Put(key(i), fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	one := entrySize(fullKey{Key: key(0), Version: "v1"}, len(`"val-0"`))
	c2, err := Open(2*one, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s := c2.Stats()
	if s.Entries != 2 || s.Bytes > s.MaxBytes {
		t.Fatalf("stats = %+v", s)
	}
	// The newest file lines survive the load-time eviction.
	for _, i := range []int{6, 7} {
		if _, ok := c2.Get(key(i)); !ok {
			t.Fatalf("newest entry %d not resident", i)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(1<<20, "v1", stringCodec, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 50)
				if v, ok := c.Get(k); ok {
					if want := fmt.Sprintf("val-%d", i%50); v != want {
						panic(fmt.Sprintf("got %q want %q", v, want))
					}
				} else if err := c.Put(k, fmt.Sprintf("val-%d", i%50)); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 8*200 {
		t.Fatalf("lost lookups: %+v", s)
	}
}

func TestBuildVersionStable(t *testing.T) {
	v1, v2 := BuildVersion(), BuildVersion()
	if v1 == "" || v1 != v2 {
		t.Fatalf("BuildVersion unstable: %q vs %q", v1, v2)
	}
}
