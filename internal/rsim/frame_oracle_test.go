package rsim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// refFrames is the reference's outbox: fresh per-port frames, built in
// every round and sent without lending.
type refFrames [][]byte

func (f refFrames) add(port, treeID int, payload []byte) {
	f[port] = appendSection(f[port], treeID, payload)
}

func (f refFrames) exchange(rt congest.Runtime) []congest.Msg {
	out := rt.OutBuf()
	for p, fr := range f {
		if len(fr) > 0 {
			out[p] = fr
		}
	}
	return rt.ExchangePorts(out)
}

// refBroadcastDown is the reference BroadcastDown: it rebuilds every frame
// from scratch in every round. It takes an Outbox only to share
// BroadcastDown's signature.
func refBroadcastDown(rt congest.Runtime, _ *Outbox, trees []TreeView, payloads [][]byte, depthBound, rep int) [][]byte {
	have := make([][]byte, len(trees))
	commits := make([]committer, len(trees))
	for j := range trees {
		if trees[j].Depth == 0 {
			have[j] = payloads[j]
		}
		commits[j] = newCommitter(rep)
	}
	for r := 0; r < Rounds(depthBound, rep); r++ {
		fr := make(refFrames, rt.Degree())
		for j, tv := range trees {
			if tv.Depth < 0 || have[j] == nil {
				continue
			}
			for _, c := range tv.Children {
				if p := rt.Port(c); p >= 0 {
					fr.add(p, j, have[j])
				}
			}
		}
		in := fr.exchange(rt)
		for j, tv := range trees {
			if tv.Depth <= 0 || tv.Parent < 0 || have[j] != nil {
				continue
			}
			if p := rt.Port(tv.Parent); p >= 0 && in[p] != nil {
				if sec, ok := section(in[p], j); ok && commits[j].Offer(sec, nil) {
					have[j] = commits[j].value
				}
			}
		}
	}
	return have
}

// refConvergecastUp is the reference ConvergecastUp: it rebuilds every
// frame from scratch in every round.
func refConvergecastUp(rt congest.Runtime, _ *Outbox, trees []TreeView, locals [][]byte, merge MergeFn, depthBound, rep int) [][]byte {
	commits := make([][]committer, len(trees))
	ready := make([][]byte, len(trees))
	for j, tv := range trees {
		if tv.Depth < 0 {
			continue
		}
		commits[j] = make([]committer, len(tv.Children))
		for i := range commits[j] {
			commits[j][i] = newCommitter(rep)
		}
		if len(tv.Children) == 0 {
			ready[j] = locals[j]
		}
	}
	for r := 0; r < Rounds(depthBound, rep); r++ {
		fr := make(refFrames, rt.Degree())
		for j, tv := range trees {
			if tv.Depth <= 0 || tv.Parent < 0 || ready[j] == nil {
				continue
			}
			if p := rt.Port(tv.Parent); p >= 0 {
				fr.add(p, j, ready[j])
			}
		}
		in := fr.exchange(rt)
		for j, tv := range trees {
			if tv.Depth < 0 || ready[j] != nil {
				continue
			}
			allDone := true
			for i, c := range tv.Children {
				cm := &commits[j][i]
				if !cm.done {
					if p := rt.Port(c); p >= 0 && in[p] != nil {
						if sec, ok := section(in[p], j); ok {
							cm.Offer(sec, nil)
						}
					}
				}
				allDone = allDone && cm.done
			}
			if allDone {
				acc := locals[j]
				for i := range commits[j] {
					acc = merge(j, acc, commits[j][i].value)
				}
				ready[j] = acc
			}
		}
	}
	res := make([][]byte, len(trees))
	for j, tv := range trees {
		if tv.Depth == 0 {
			res[j] = ready[j]
		}
	}
	return res
}

// frameRecorder is a Runtime that logs a copy of every outbox it sends
// and checks the lending contract. For every exchange lent by LendOut it
// keeps each frame's view next to a copy; when the following exchange
// returns, every view must still equal its copy, since the engine may
// deliver a lent frame by reference until then. The first breach is kept in
// broken, naming the frame.
type frameRecorder struct {
	congest.Runtime
	rounds [][]congest.Msg
	lends  int         // exchanges lent
	lend   bool        // LendOut was called for the next exchange
	lent   []lentFrame // the frames lent at the previous exchange
	broken string
}

// lentFrame is one frame lent on port at exchange: the view the engine
// received and a copy taken when it was sent.
type lentFrame struct {
	exchange, port int
	view, sent     congest.Msg
}

func (r *frameRecorder) LendOut() {
	r.lend = true
	r.Runtime.LendOut()
}

func (r *frameRecorder) ExchangePorts(out []congest.Msg) []congest.Msg {
	x := len(r.rounds)
	sent := make([]congest.Msg, len(out))
	var lent []lentFrame
	for p, m := range out {
		if m != nil {
			sent[p] = append(congest.Msg{}, m...)
			if r.lend {
				lent = append(lent, lentFrame{exchange: x, port: p, view: m, sent: sent[p]})
			}
		}
	}
	r.rounds = append(r.rounds, sent)
	if r.lend {
		r.lends++
	}
	r.lend = false
	in := r.Runtime.ExchangePorts(out)
	for _, f := range r.lent {
		if r.broken == "" && !bytes.Equal(f.view, f.sent) {
			r.broken = fmt.Sprintf("frame lent on port %d at exchange %d was rewritten before exchange %d returned: %x, lent as %x",
				f.port, f.exchange, x, f.view, f.sent)
		}
	}
	r.lent = lent
	return in
}

// heapPacking packs k trees on n nodes: tree j is a binary heap over the
// nodes rotated by j, so it is rooted at j, every node sits at a different
// level in different trees, and 8 <= n < 16 gives depth 3.
func heapPacking(n, k int) *treepack.Packing {
	p := &treepack.Packing{Root: 0}
	for j := 0; j < k; j++ {
		at := func(i int) graph.NodeID { return graph.NodeID((i + j) % n) }
		tr := treepack.NewTree(n, at(0))
		for i := 1; i < n; i++ {
			tr.Parent[at(i)] = at((i - 1) / 2)
		}
		p.Trees = append(p.Trees, tr)
	}
	return p
}

// foldXor folds b into a in place, which the MergeFn contract allows
// because every node owns each of its locals exclusively.
func foldXor(_ int, a, b []byte) []byte {
	for i := range a {
		if i < len(b) {
			a[i] ^= b[i]
		}
	}
	return a
}

// oracleRun is one node's record of a broadcast followed by a convergecast:
// every frame it sent, how many exchanges it lent, the first breach of the
// lending contract, and both results.
type oracleRun struct {
	frames   [][]congest.Msg
	lends    int
	broken   string
	down, up [][]byte
}

// TestFramesMatchRebuildEveryRound: BroadcastDown and ConvergecastUp, which
// rebuild a frame only after a tree commits, send in every round exactly the
// frames the rebuild-every-round reference sends, on a depth-3 packing where
// trees commit level by level mid-call, fault-free and under a mobile flip
// adversary that delays commits. Both calls share one Outbox, as a compiler
// node's calls do, and lend every exchange; the recorder checks that no
// frame lent at one exchange is rewritten before the next one returns,
// within a call and across the two.
func TestFramesMatchRebuildEveryRound(t *testing.T) {
	const n, k, depth, rep = 10, 4, 3, 3
	g := graph.Clique(n)
	p := heapPacking(n, k)
	if d := MaxDepth(Views(p)); d != depth {
		t.Fatalf("packing depth %d, want %d", d, depth)
	}
	callRounds := Rounds(depth, rep)
	run := func(f int, real bool) []oracleRun {
		down, up := BroadcastDown, ConvergecastUp
		if !real {
			down, up = refBroadcastDown, refConvergecastUp
		}
		proto := func(rt congest.Runtime) {
			rec := &frameRecorder{Runtime: rt}
			views := rt.Shared().([][]TreeView)[rt.ID()]
			payloads := make([][]byte, k)
			locals := make([][]byte, k)
			for j := range views {
				if views[j].Depth == 0 {
					payloads[j] = bytes.Repeat([]byte{0xB0 + byte(j)}, j+1)
				}
				locals[j] = []byte{byte(rt.ID()), byte(j), byte(rt.ID() * 7)}
			}
			var ob Outbox
			var out oracleRun
			// The adopted payloads live until the next call on ob.
			out.down = clone2(down(rec, &ob, views, payloads, depth, rep))
			out.up = up(rec, &ob, views, locals, foldXor, depth, rep)
			out.frames, out.lends, out.broken = rec.rounds, rec.lends, rec.broken
			rt.SetOutput(out)
		}
		var adv congest.Adversary
		if f > 0 {
			adv = adversary.NewMobileByzantine(g, f, 17, adversary.SelectRandom, adversary.CorruptFlip)
		}
		res := runPacking(t, g, p, adv, proto)
		outs := make([]oracleRun, n)
		for v, o := range res.Outputs {
			outs[v] = o.(oracleRun)
		}
		return outs
	}
	for _, f := range []int{0, 2} {
		t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
			got, want := run(f, true), run(f, false)
			rebuilt := [2]bool{} // a non-empty frame changed mid-call, per primitive
			for v := range got {
				if got[v].broken != "" {
					t.Fatalf("node %d: %s", v, got[v].broken)
				}
				if got[v].lends != 2*callRounds {
					t.Fatalf("node %d: lent %d of %d exchanges", v, got[v].lends, 2*callRounds)
				}
				if fmt.Sprint(got[v].down, got[v].up) != fmt.Sprint(want[v].down, want[v].up) {
					t.Fatalf("node %d: results differ from the reference", v)
				}
				if len(got[v].frames) != 2*callRounds || len(want[v].frames) != 2*callRounds {
					t.Fatalf("node %d: %d and %d exchanges, want %d", v, len(got[v].frames), len(want[v].frames), 2*callRounds)
				}
				for r, sent := range got[v].frames {
					for port, m := range sent {
						if !bytes.Equal(m, want[v].frames[r][port]) {
							t.Fatalf("node %d round %d port %d: frame %x, reference %x", v, r, port, m, want[v].frames[r][port])
						}
						if r%callRounds > 0 {
							if prev := got[v].frames[r-1][port]; len(prev) > 0 && !bytes.Equal(prev, m) {
								rebuilt[r/callRounds] = true
							}
						}
					}
				}
			}
			if !rebuilt[0] || !rebuilt[1] {
				t.Fatalf("no mid-call rebuild of a non-empty frame (broadcast %v, convergecast %v)", rebuilt[0], rebuilt[1])
			}
		})
	}
}

// TestConvergecastRecyclesCandidates: consecutive ConvergecastUp calls on
// one Outbox, and a BroadcastDown between them, copy their candidates into
// the same buffers, fault-free and under a mobile flip adversary that adds
// corrupted candidates, and still return what the reference, which copies
// every candidate into fresh storage, returns. The bytes of a
// convergecast's result must not change when the next call reuses the
// buffers (the returned slice itself is the Outbox's until that call, so
// the test keeps a copy of it). BroadcastDown's adopted payloads live only
// until the next call, so the test copies them before it.
func TestConvergecastRecyclesCandidates(t *testing.T) {
	const n, k, depth, rep = 10, 4, 3, 3
	g := graph.Clique(n)
	p := heapPacking(n, k)
	allViews := Views(p)
	type record struct {
		up1, up1Then, up2   [][]byte
		down                [][]byte
		used1, usedD, used2 int
		bufs                int
	}
	run := func(f int, real bool) []record {
		up := ConvergecastUp
		if !real {
			up = refConvergecastUp
		}
		proto := func(rt congest.Runtime) {
			views := rt.Shared().([][]TreeView)[rt.ID()]
			locals := func(salt byte) [][]byte {
				l := make([][]byte, k)
				for j := range l {
					l[j] = []byte{byte(rt.ID()), byte(j), salt, byte(rt.ID()) * salt}
				}
				return l
			}
			payloads := make([][]byte, k)
			for j := range views {
				if views[j].Depth == 0 {
					payloads[j] = []byte{0xD0 + byte(j)}
				}
			}
			var ob Outbox
			var out record
			out.up1 = slices.Clone(up(rt, &ob, views, locals(3), foldXor, depth, rep))
			out.used1 = ob.cands.used
			out.up1Then = clone2(out.up1)
			out.down = clone2(BroadcastDown(rt, &ob, views, payloads, depth, rep))
			out.usedD = ob.cands.used
			out.up2 = up(rt, &ob, views, locals(5), foldXor, depth, rep)
			out.used2, out.bufs = ob.cands.used, len(ob.cands.bufs)
			rt.SetOutput(out)
		}
		var adv congest.Adversary
		if f > 0 {
			adv = adversary.NewMobileByzantine(g, f, 23, adversary.SelectRandom, adversary.CorruptFlip)
		}
		res := runPacking(t, g, p, adv, proto)
		outs := make([]record, n)
		for v, o := range res.Outputs {
			outs[v] = o.(record)
		}
		return outs
	}
	for _, f := range []int{0, 2} {
		got, want := run(f, true), run(f, false)
		copied, copiedD := 0, 0
		for v := range got {
			gv, wv := got[v], want[v]
			if fmt.Sprint(gv.up1, gv.down, gv.up2) != fmt.Sprint(wv.up1, wv.down, wv.up2) {
				t.Fatalf("f=%d node %d: results differ from the reference", f, v)
			}
			if fmt.Sprint(gv.up1) != fmt.Sprint(gv.up1Then) {
				t.Fatalf("f=%d node %d: the first convergecast's result changed during the second", f, v)
			}
			// Fault-free, each convergecast copies one candidate per child,
			// and the broadcast one per payload it adopts.
			adopted := 0
			for j, b := range gv.down {
				if b != nil && allViews[v][j].Depth > 0 {
					adopted++
				}
			}
			if gv.bufs != max(gv.used1, gv.usedD, gv.used2) || f == 0 && (gv.used1 != gv.used2 || gv.usedD != adopted) {
				t.Fatalf("f=%d node %d: %d, %d and %d candidates in %d buffers (%d payloads adopted); a later call did not recycle an earlier one's", f, v, gv.used1, gv.usedD, gv.used2, gv.bufs, adopted)
			}
			copied += gv.used1
			copiedD += gv.usedD
		}
		if copied == 0 || copiedD == 0 {
			t.Fatalf("f=%d: %d convergecast and %d broadcast candidates copied, want some of each", f, copied, copiedD)
		}
	}
}

func clone2(b [][]byte) [][]byte {
	out := make([][]byte, len(b))
	for i := range b {
		out[i] = bytes.Clone(b[i])
	}
	return out
}
