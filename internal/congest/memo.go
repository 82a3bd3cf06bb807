package congest

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Memo is a run's store for the results of pure node computations. Many
// nodes of a simulated network evaluate the same deterministic function on
// byte-identical inputs: both endpoints of an edge condense the same
// exchanged stream into keys, every node decodes the same broadcast
// codeword, every node derives the same seeds from the same broadcast seed.
// The simulator runs every node's code, but a Memo lets the first node to
// evaluate such a function share its result with every later node of the
// same run that presents the same input, without changing a byte of any
// record.
//
// The contract, for every MemoTable:
//   - Pure: the function's result depends on its key alone, never on the
//     calling node, its randomness or the round.
//   - Exact: keys are compared element by element; their hash only picks a
//     bucket. A corrupted input is simply a different key, and a failed
//     computation is stored like any other result.
//   - Read-only: the memo keeps the first caller's key and result until the
//     run ends and hands the same result to every later caller, so neither
//     may be written after Derive. A caller that must mutate a result
//     copies it.
//   - Run-scoped: the engine empties the memo when a run ends, so no run
//     sees another's entries and a context parked between runs pins none of
//     them.
//
// A Memo also keeps each node's NodeScratch values, which, unlike its
// tables, outlive the run (see NodeScratch).
//
// A Memo is safe for concurrent use by the nodes of a run. Runtime.Memo
// returns the run's memo; the zero value is an empty memo.
type Memo struct {
	mu      sync.Mutex
	tables  []memoStore // indexed by MemoTable id - 1; nil until used
	scratch []any       // indexed by NodeScratch id - 1: *scratchNodes[T], nil until used
	runs    atomic.Uint64
}

// memoStore is the type-erased face of a memoTable, for release.
type memoStore interface{ release() }

// MemoWord is the element type of memo keys.
type MemoWord interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// MemoTable names one pure function whose results a run's Memo stores: a
// function from keys of E words to values of type V. Tables are declared
// once (typically one per package-level function, or one per parameter
// geometry alongside its other shared read-only state) with NewMemoTable,
// and every run's Memo keeps a separate table for each.
type MemoTable[E MemoWord, V any] struct {
	id int
}

// memoTableIDs hands out MemoTable ids, starting at 1, so a zero MemoTable
// fails loudly instead of aliasing another table.
var memoTableIDs atomic.Int64

// NewMemoTable declares a new table. Tables are never freed, so declare
// one per function (or per geometry), never one per run or per node.
func NewMemoTable[E MemoWord, V any]() MemoTable[E, V] {
	return MemoTable[E, V]{id: int(memoTableIDs.Add(1))}
}

// Derive returns the table's value at key for the run m belongs to: the
// value stored for a key equal to this one if there is one, else compute's
// result, which it stores. The memo keeps key and the stored value until
// the run ends, so the caller must not write either afterwards (see Memo).
// compute runs without any lock held; if two nodes on parallel shards
// compute the same key at once, the first to store wins and both get its
// value.
func (t MemoTable[E, V]) Derive(m *Memo, key []E, compute func() V) V {
	h := memoHash(key)
	m.mu.Lock()
	tab := memoTableIn[E, V](m, t.id)
	v, ok := tab.find(h, key)
	m.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	m.mu.Lock()
	v = tab.insert(h, key, v)
	m.mu.Unlock()
	return v
}

// memoTableIn returns m's table with the given id, creating it on first
// use. m.mu must be held.
func memoTableIn[E MemoWord, V any](m *Memo, id int) *memoTable[E, V] {
	if len(m.tables) < id {
		m.tables = append(m.tables, make([]memoStore, id-len(m.tables))...)
	}
	s := m.tables[id-1]
	if s == nil {
		s = &memoTable[E, V]{}
		m.tables[id-1] = s
	}
	return s.(*memoTable[E, V])
}

// release empties every table, keeping their capacity for the next run. The
// engine calls it when a run ends, after every node has stopped.
func (m *Memo) release() {
	for _, s := range m.tables {
		if s != nil {
			s.release()
		}
	}
	m.runs.Add(1)
}

// Runs returns the number of runs the memo has served to their end. It
// changes only between runs, so a node that keeps per-use storage in a
// NodeScratch can tell its first use in a run from a later use in the same
// run by comparing it with the count it saw at its last use.
func (m *Memo) Runs() uint64 { return m.runs.Load() }

// NodeScratch names one kind of per-node working storage: the buffers a
// protocol's node grows to its needs and length-resets before every use,
// so that their contents never carry from one use to the next. Declare one
// per package, like a MemoTable, with NewNodeScratch.
//
// Unlike a MemoTable's entries, a node's scratch value outlives the run:
// the RunContext whose Memo holds it hands the same value to the same node
// in each of its later runs, so warm runs reuse the storage instead of
// growing it again. The context drops its memo, and with it every scratch
// value, when it rebinds to another graph and when it is closed, so a
// closed context parked between runs pins none. A Memo that serves a
// single run (the reference simulator makes one per run) hands out fresh
// values.
//
// A node's value is its own: no other node reads or writes it, and the
// node holds it for at most one use at a time, so a protocol must not nest
// two users of the same NodeScratch at one node.
type NodeScratch[T any] struct {
	id int
}

// scratchNodes holds one NodeScratch's values, indexed by node.
type scratchNodes[T any] struct {
	nodes []*T
}

// nodeScratchIDs hands out NodeScratch ids, starting at 1, so a zero
// NodeScratch fails loudly instead of aliasing another.
var nodeScratchIDs atomic.Int64

// NewNodeScratch declares a new kind of node scratch. Like tables, kinds
// are never freed, so declare one per package (or per use), never one per
// run or per node.
func NewNodeScratch[T any]() NodeScratch[T] {
	return NodeScratch[T]{id: int(nodeScratchIDs.Add(1))}
}

// Of returns the calling node's value of s in the run's memo: the value
// the node left in it at the end of an earlier run of the same context,
// or a zero T on first use. The node may keep the pointer until its run
// ends.
func (s NodeScratch[T]) Of(rt Runtime) *T {
	m, id := rt.Memo(), int(rt.ID())
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.scratch) < s.id {
		m.scratch = append(m.scratch, make([]any, s.id-len(m.scratch))...)
	}
	tab, _ := m.scratch[s.id-1].(*scratchNodes[T])
	if tab == nil {
		tab = new(scratchNodes[T])
		m.scratch[s.id-1] = tab
	}
	if len(tab.nodes) <= id {
		tab.nodes = append(tab.nodes, make([]*T, max(rt.N(), id+1)-len(tab.nodes))...)
	}
	v := tab.nodes[id]
	if v == nil {
		v = new(T)
		tab.nodes[id] = v
	}
	return v
}

// memoHash hashes the key's words for the table's index: FNV-1a over four
// interleaved lanes, so the multiplies do not wait on each other, folded
// together with the key's length. The index map mixes the result itself.
func memoHash[E MemoWord](key []E) uint64 {
	const prime = 1099511628211
	h0, h1, h2, h3 := uint64(14695981039346656037), uint64(1), uint64(2), uint64(3)
	i := 0
	for ; i+4 <= len(key); i += 4 {
		w := key[i : i+4 : i+4]
		h0 = (h0 ^ uint64(w[0])) * prime
		h1 = (h1 ^ uint64(w[1])) * prime
		h2 = (h2 ^ uint64(w[2])) * prime
		h3 = (h3 ^ uint64(w[3])) * prime
	}
	for ; i < len(key); i++ {
		h0 = (h0 ^ uint64(key[i])) * prime
	}
	return (((h0^h1)*prime^h2)*prime^h3)*prime ^ uint64(len(key))
}

// memoTable holds one function's entries for a run. index maps a key hash
// to 1 + the position in entries of the newest entry with that hash; older
// entries with the same hash chain through next. Entries are never deleted
// within a run, and release empties both while keeping their capacity.
type memoTable[E MemoWord, V any] struct {
	index   map[uint64]int32
	entries []memoEntry[E, V]
}

type memoEntry[E MemoWord, V any] struct {
	key  []E
	val  V
	next int32 // 1 + position of the previous entry with the same hash, or 0
}

// find returns the value stored for key, whose hash is h.
func (t *memoTable[E, V]) find(h uint64, key []E) (V, bool) {
	for i := t.index[h]; i != 0; i = t.entries[i-1].next {
		if e := &t.entries[i-1]; slices.Equal(e.key, key) {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// insert stores v for key unless the table already holds a value for it,
// and returns the stored value.
func (t *memoTable[E, V]) insert(h uint64, key []E, v V) V {
	if old, ok := t.find(h, key); ok {
		return old
	}
	if t.index == nil {
		t.index = make(map[uint64]int32)
	}
	t.entries = append(t.entries, memoEntry[E, V]{key: key, val: v, next: t.index[h]})
	t.index[h] = int32(len(t.entries))
	return v
}

func (t *memoTable[E, V]) release() {
	clear(t.index)
	clear(t.entries)
	t.entries = t.entries[:0]
}
