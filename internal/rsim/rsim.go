// Package rsim realizes the contract of the Rajagopalan-Schulman compilers
// (Theorem 3.2) and the parallel scheduler of Lemma 3.3 for the tree
// protocols the paper actually compiles: pipelined broadcast down a rooted
// tree and merge-convergecast up it.
//
// Substitution (see "Substitutions" in the README): instead of tree codes,
// values propagate under *commit-threshold* forwarding. A node adopts a
// value for a tree only after receiving Rep identical copies of it from the
// relevant neighbour, then retransmits it every remaining round. Corrupting
// an edge therefore either (i) delays the commit by one round per
// corruption, or (ii) requires forging Rep identical copies — i.e.
// controlling the edge outright. With window T = 2*Rep*(depth+1), a tree
// fails only if the adversary spends about T corruptions on it (mirroring
// Theorem 3.2's constant-fraction-of-communication threshold), so an
// f-mobile adversary breaks O(f * eta) of k parallel trees — the Lemma 3.3
// guarantee.
//
// All k trees run concurrently: each physical round, every graph edge
// carries one frame containing that edge's message for every tree using it,
// which is exactly the load-eta scheduling of Lemma 3.3 (an adversary
// corrupting the edge corrupts all eta trees on it, as in the paper).
//
// Buffer ownership: each node keeps one Outbox across calls, with two sets
// of per-port frame buffers, and re-sends its current set unchanged every
// round. A frame's content depends only on which trees this node has
// committed, so a call rebuilds its frames, in the same tree order, only in
// a round after a tree it forwards committed. Every exchange lends the
// frames to the engine (congest.Runtime.LendOut), which delivers them
// by reference instead of copying them into its round arena. A rebuild
// therefore switches to the other set: the set lent at the previous
// exchange stays untouched until the exchange after it has returned, as the
// lending contract requires, and the set it writes was last lent before
// that. Received frames are views into other nodes' frames or into the
// engine's arena, so a committer copies a candidate value out once, before
// the sender or the engine rewrites the view. Both calls copy their
// candidates into buffers the Outbox recycles at its next call of either
// kind: a committed child aggregate only feeds ConvergecastUp's merge (see
// MergeFn), and the payloads BroadcastDown adopts are its result, which
// lives only until that next call.
//
// The Outbox also keeps each call's bookkeeping: the committers with their
// candidate lists, and the per-tree slices, including the slice a call
// returns. A call length-resets them on entry, so BroadcastDown's result,
// the slice and the adopted payloads in it, is valid until the next rsim
// call on the same Outbox, and ConvergecastUp's slice until the next
// ConvergecastUp; the aggregates in it are the caller's for as long as the
// merge's contract says.
package rsim

import (
	"bytes"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// TreeView is one node's local knowledge of one tree in the packing: its
// parent, children, and depth. Absent nodes (weak packings) have Depth < 0.
type TreeView struct {
	// Index identifies the tree within the packing.
	Index int
	// Parent is the tree parent (-1 for the root or absent nodes).
	Parent graph.NodeID
	// Children are the tree children.
	Children []graph.NodeID
	// Depth is this node's distance from the root (-1 if absent).
	Depth int
}

// Views computes every node's TreeView list for a packing — the "distributed
// knowledge" artifact handed to nodes as trusted preprocessing. Broken trees
// (cycles, dangling parents) yield Depth -1 views, which the protocols treat
// as absent; such trees simply fail, which weak packings budget for.
func Views(p *treepack.Packing) [][]TreeView {
	n := 0
	if len(p.Trees) > 0 {
		n = len(p.Trees[0].Parent)
	}
	views := make([][]TreeView, n)
	for v := 0; v < n; v++ {
		views[v] = make([]TreeView, len(p.Trees))
	}
	for j, t := range p.Trees {
		children := t.Children()
		depth := depths(t)
		for v := 0; v < n; v++ {
			views[v][j] = TreeView{
				Index:    j,
				Parent:   t.Parent[v],
				Children: children[v],
				Depth:    depth[v],
			}
			if graph.NodeID(v) == t.Root {
				views[v][j].Parent = -1
			}
		}
	}
	return views
}

// depths returns per-node depth or -1 (absent/broken).
func depths(t *treepack.Tree) []int {
	n := len(t.Parent)
	d := make([]int, n)
	for v := range d {
		d[v] = -1
	}
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			continue
		}
		steps := 0
		u := graph.NodeID(v)
		for u != t.Root && steps <= n {
			p := t.Parent[u]
			if p < 0 || int(p) >= n {
				steps = n + 1
				break
			}
			u = p
			steps++
		}
		if steps <= n && u == t.Root {
			d[v] = steps
		}
	}
	return d
}

// MaxDepth returns the largest depth over all views (absent views ignored),
// which all nodes can compute from the shared packing.
func MaxDepth(views [][]TreeView) int {
	max := 0
	for _, nodeViews := range views {
		for _, v := range nodeViews {
			if v.Depth > max {
				max = v.Depth
			}
		}
	}
	return max
}

// IsRoot reports whether the node whose views these are roots any tree.
func IsRoot(trees []TreeView) bool {
	for _, tv := range trees {
		if tv.Depth == 0 {
			return true
		}
	}
	return false
}

// Rounds returns the physical round count used by BroadcastDown and
// ConvergecastUp with the given depth bound and repetition: the pipeline
// needs rep*(depth+1) rounds to commit level by level, doubled for delay
// slack against corruption.
func Rounds(depthBound, rep int) int { return 2 * rep * (depthBound + 1) }

// frame encoding: [treeID u16][len u16][payload]... per physical edge.

func appendSection(dst []byte, treeID int, payload []byte) []byte {
	dst = append(dst, byte(treeID>>8), byte(treeID))
	dst = append(dst, byte(len(payload)>>8), byte(len(payload)))
	return append(dst, payload...)
}

// section returns the payload frame m carries for tree treeID. A frame may
// repeat a tree (only a corrupted one does); the last section wins. A
// truncated or corrupted tail ends the scan. The result is a view into m.
func section(m congest.Msg, treeID int) (payload []byte, ok bool) {
	i := 0
	for i+4 <= len(m) {
		id := int(m[i])<<8 | int(m[i+1])
		l := int(m[i+2])<<8 | int(m[i+3])
		i += 4
		if i+l > len(m) {
			break
		}
		if id == treeID {
			payload, ok = m[i:i+l], true
		}
		i += l
	}
	return payload, ok
}

// Outbox is one node's outgoing frames: two sets of per-port frame buffers,
// of which one is current, the buffers both calls copy candidate values
// into, and the calls' bookkeeping. A node keeps one Outbox across
// its BroadcastDown and ConvergecastUp calls, and may keep it across runs,
// so the buffers grow once rather than once per call. The zero value is
// ready to use. An Outbox belongs to one node and one runtime at a time;
// the package doc explains why the second set makes lending its frames
// safe.
type Outbox struct {
	sets  [2][][]byte
	cur   int
	cands candidateBufs

	commits []committer // the call's committers; ConvergecastUp's by first
	first   []int       // ConvergecastUp: tree j's committers start at first[j]
	have    [][]byte    // BroadcastDown's result
	ready   [][]byte    // ConvergecastUp's subtree aggregates, then its result
}

// committers returns n committers at the given threshold for one call,
// reusing the previous call's committers and their candidate lists.
func (o *Outbox) committers(n, threshold int) []committer {
	if cap(o.commits) < n {
		o.commits = make([]committer, n)
	}
	cs := o.commits[:n]
	for i := range cs {
		cands := cs[i].cands
		clear(cands)
		cs[i] = newCommitter(threshold)
		cs[i].cands = cands[:0]
	}
	return cs
}

// zeroed returns s resized to n with every entry zero, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// candidateBufs recycles the candidate copies of one BroadcastDown or
// ConvergecastUp call: the first used buffers hold this call's candidates.
// A nil *candidateBufs copies every candidate into fresh storage.
type candidateBufs struct {
	bufs [][]byte
	used int
}

// copyOf returns a copy of v, in the next recycled buffer unless c is nil.
func (c *candidateBufs) copyOf(v []byte) []byte {
	if c == nil {
		return append([]byte{}, v...)
	}
	if c.used == len(c.bufs) {
		c.bufs = append(c.bufs, nil)
	}
	b := append(c.bufs[c.used][:0], v...)
	c.bufs[c.used] = b
	c.used++
	return b
}

// reset switches to the other set and empties its frames ahead of a
// rebuild, keeping the buffers. The set it leaves may have been lent at the
// previous exchange, whose receivers may still be reading it.
func (o *Outbox) reset(degree int) {
	o.cur ^= 1
	f := o.sets[o.cur]
	if len(f) != degree {
		f = make([][]byte, degree)
		o.sets[o.cur] = f
	}
	for p := range f {
		f[p] = f[p][:0]
	}
}

func (o *Outbox) add(port, treeID int, payload []byte) {
	f := o.sets[o.cur]
	f[port] = appendSection(f[port], treeID, payload)
}

// exchange lends every non-empty frame of the current set and returns the
// round's inbox. The frames stay as they are, ready to be sent again.
func (o *Outbox) exchange(rt congest.Runtime) []congest.Msg {
	out := rt.OutBuf()
	for p, fr := range o.sets[o.cur] {
		if len(fr) > 0 {
			out[p] = fr
		}
	}
	rt.LendOut()
	return rt.ExchangePorts(out)
}

// committer tracks copies of candidate values on one (tree, neighbour)
// stream and commits at the threshold.
type committer struct {
	cands     []candidate
	threshold int
	value     []byte
	done      bool
}

// candidate is one distinct value seen on a stream and its copy count.
type candidate struct {
	v []byte
	n int
}

func newCommitter(threshold int) committer {
	return committer{threshold: threshold}
}

// Offer records one received copy and reports whether the stream has
// committed. v may be a view into an engine arena: a new candidate is copied
// out once, into bufs (fresh storage if bufs is nil), since the engine
// rewrites that view two rounds later. The scan is linear in the distinct
// values seen, and only corruption adds more than one.
func (c *committer) Offer(v []byte, bufs *candidateBufs) bool {
	if c.done {
		return true
	}
	i := 0
	for i < len(c.cands) && !bytes.Equal(c.cands[i].v, v) {
		i++
	}
	if i == len(c.cands) {
		c.cands = append(c.cands, candidate{v: bufs.copyOf(v)})
	}
	c.cands[i].n++
	if c.cands[i].n >= c.threshold {
		c.value = c.cands[i].v
		c.done = true
	}
	return c.done
}

// BroadcastDown floods a per-tree payload from each tree's root to all its
// nodes: payloads[j] must be set at the root of tree j (nil elsewhere).
// Runs Rounds(depthBound, rep) physical rounds and returns this node's
// received payload per tree (nil when the tree never committed — a failed
// tree). Every participating node must call it at the same round with the
// same depthBound and rep. ob is the node's Outbox; the returned slice and
// the payloads it adopted (every entry but a root's own payloads[j]) are
// ob's until the next BroadcastDown or ConvergecastUp on it, so a caller
// that keeps a payload longer copies it.
func BroadcastDown(rt congest.Runtime, ob *Outbox, trees []TreeView, payloads [][]byte, depthBound, rep int) [][]byte {
	ob.have = zeroed(ob.have, len(trees))
	have := ob.have
	commits := ob.committers(len(trees), rep)
	// The previous call's candidates are its result or fed its merges;
	// either way they are dead now.
	ob.cands.used = 0
	for j := range trees {
		if trees[j].Depth == 0 { // root
			have[j] = payloads[j]
		}
	}
	total := Rounds(depthBound, rep)
	stale := true // a tree this node forwards committed since the last build
	for r := 0; r < total; r++ {
		if stale {
			ob.reset(rt.Degree())
			for j, tv := range trees {
				if tv.Depth < 0 || have[j] == nil {
					continue
				}
				for _, c := range tv.Children {
					if p := rt.Port(c); p >= 0 {
						ob.add(p, j, have[j])
					}
				}
			}
			stale = false
		}
		in := ob.exchange(rt)
		for j, tv := range trees {
			if tv.Depth <= 0 || tv.Parent < 0 || have[j] != nil {
				continue
			}
			if p := rt.Port(tv.Parent); p >= 0 && in[p] != nil {
				if sec, ok := section(in[p], j); ok && commits[j].Offer(sec, &ob.cands) {
					have[j] = commits[j].value
					stale = stale || len(tv.Children) > 0
				}
			}
		}
	}
	return have
}

// MergeFn combines two encoded aggregates for one tree and returns the
// result. ConvergecastUp hands locals[j] to merge as its first argument, and
// each later merge of tree j the previous result; b is a committed child
// aggregate, owned by rsim, which reuses its storage once the call
// returns, so a merge must neither retain b nor return it. A merge may fold
// b into a in place and return a only when the caller owns each locals[j]
// exclusively: a locals slice shared across trees must be merged into fresh
// storage.
type MergeFn func(treeIdx int, a, b []byte) []byte

// ConvergecastUp aggregates per-tree local values to each tree's root:
// locals[j] is this node's contribution to tree j. A node transmits its
// subtree aggregate — its local folded with every child's committed
// aggregate — only once all children have committed, so retransmissions are
// identical and the parent's commit threshold applies. Returns, at each
// tree's root, the tree aggregate (nil elsewhere or on failure). Must be
// called in lock-step by all nodes with equal depthBound and rep. ob is the
// node's Outbox; the returned slice is ob's until the next ConvergecastUp
// on it.
func ConvergecastUp(rt congest.Runtime, ob *Outbox, trees []TreeView, locals [][]byte, merge MergeFn, depthBound, rep int) [][]byte {
	// commits[first[j]+i] tracks child i of tree j.
	ob.first = zeroed(ob.first, len(trees)+1)
	first := ob.first
	for j, tv := range trees {
		first[j+1] = first[j]
		if tv.Depth >= 0 {
			first[j+1] += len(tv.Children)
		}
	}
	commits := ob.committers(first[len(trees)], rep)
	// The previous call's candidates fed only its merges, or were a
	// BroadcastDown result, which lives only until this call.
	ob.cands.used = 0
	ob.ready = zeroed(ob.ready, len(trees))
	ready := ob.ready // my complete subtree aggregate
	for j, tv := range trees {
		if tv.Depth >= 0 && len(tv.Children) == 0 {
			ready[j] = locals[j]
		}
	}
	total := Rounds(depthBound, rep)
	stale := true // a tree this node forwards committed since the last build
	for r := 0; r < total; r++ {
		if stale {
			ob.reset(rt.Degree())
			for j, tv := range trees {
				if tv.Depth <= 0 || tv.Parent < 0 || ready[j] == nil {
					continue
				}
				if p := rt.Port(tv.Parent); p >= 0 {
					ob.add(p, j, ready[j])
				}
			}
			stale = false
		}
		in := ob.exchange(rt)
		for j, tv := range trees {
			if tv.Depth < 0 || ready[j] != nil {
				continue
			}
			cms := commits[first[j]:first[j+1]]
			allDone := true
			for i, c := range tv.Children {
				cm := &cms[i]
				if cm.done {
					continue
				}
				if p := rt.Port(c); p >= 0 && in[p] != nil {
					if sec, ok := section(in[p], j); ok {
						cm.Offer(sec, &ob.cands)
					}
				}
				if !cm.done {
					allDone = false
				}
			}
			if allDone {
				acc := locals[j]
				for i := range cms {
					acc = merge(j, acc, cms[i].value)
				}
				ready[j] = acc
				stale = stale || tv.Depth > 0 && tv.Parent >= 0
			}
		}
	}
	// Only the roots' aggregates are the result.
	for j, tv := range trees {
		if tv.Depth != 0 {
			ready[j] = nil
		}
	}
	return ready
}
