// Package registry provides the name table behind the simulator's
// name-keyed registries: topologies, adversaries and protocols in the root
// package, engines in congest. Each registry is one Table; the table owns
// the lock, the lookup, the sorted name list, the built-in mark and the
// unknown-name error, so the registries and the name checks of plans and
// plan specs share them.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Table maps names to entries. It is safe for concurrent use. Its
// unknown-name error reads
//
//	<prefix>: unknown <kind> "name" (have [sorted names])
//
// Get and Check do not allocate when every name is registered.
type Table[V any] struct {
	prefix, kind string

	mu      sync.RWMutex
	entries map[string]entry[V]
	gen     uint64 // Register and RegisterBuiltIn calls so far
}

type entry[V any] struct {
	v       V
	builtIn bool
}

// New returns an empty table whose unknown-name errors start with prefix
// (the owning package, e.g. "congest") and name the entries kind (e.g.
// "engine").
func New[V any](prefix, kind string) *Table[V] {
	return &Table[V]{prefix: prefix, kind: kind, entries: map[string]entry[V]{}}
}

// Register adds (or replaces) the entry under name. The entry is not
// built-in, also when it replaces one that was.
func (t *Table[V]) Register(name string, v V) { t.set(name, entry[V]{v: v}) }

// RegisterBuiltIn adds (or replaces) the entry under name and marks it
// built-in: one the owning package registers itself, whose behaviour its
// name and the build's code pin.
func (t *Table[V]) RegisterBuiltIn(name string, v V) { t.set(name, entry[V]{v: v, builtIn: true}) }

func (t *Table[V]) set(name string, e entry[V]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[name] = e
	t.gen++
}

// BuiltIn reports whether the entry under name is a built-in one that no
// Register has replaced since. What a caller keeps or caches by name alone
// is sound only for such entries.
func (t *Table[V]) BuiltIn(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries[name].builtIn
}

// Generation counts the registrations made on the table. A caller that
// keeps what it built from an entry stamps it with the generation read
// before the lookup, and trusts it only while the generation is unchanged:
// any Register since may have replaced the entry.
func (t *Table[V]) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// Get returns the entry registered under name, or the unknown-name error.
func (t *Table[V]) Get(name string) (V, error) {
	t.mu.RLock()
	e, ok := t.entries[name]
	t.mu.RUnlock()
	if !ok {
		return e.v, t.unknown(name)
	}
	return e.v, nil
}

// Has reports whether an entry is registered under name.
func (t *Table[V]) Has(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.entries[name]
	return ok
}

// Check returns the unknown-name error for the first of names that has no
// entry, or nil when every name has one.
func (t *Table[V]) Check(names ...string) error {
	for _, name := range names {
		if !t.Has(name) {
			return t.unknown(name)
		}
	}
	return nil
}

// Names lists the registered names, sorted.
func (t *Table[V]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.entries))
	for name := range t.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (t *Table[V]) unknown(name string) error {
	return fmt.Errorf("%s: unknown %s %q (have %v)", t.prefix, t.kind, name, t.Names())
}
