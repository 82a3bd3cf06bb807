package mobilecongest

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// refEngine is the reference simulator: a test-only CONGEST simulator
// written from the model's definition (Section 1.4), so the cross-engine
// suites check every engine against code that shares none of theirs — no
// arena, edge layout, coroutine, shard, or run core. Every node runs its
// protocol in a goroutine of its own against refNode, a plain Runtime
// whose exchange is two channel handoffs. Each round the outboxes become a
// congest.Traffic map, the adversary rewrites it through the public
// free-standing view (congest.NewRoundTraffic, then Delivered), and the
// corrupted edges, budget verdicts, bandwidth aborts, Stats, and trace are
// all recomputed from the sent and delivered maps.
//
// A Scenario can drive it (WithEngine). It calls no cfg.Observers, whose
// RoundView only an engine can build: Run leaves its trace in trace.
type refEngine struct{ trace []congest.RoundTrace }

func (*refEngine) Name() string { return "reference" }

// RunIn is Run: the reference keeps nothing between runs, so it ignores the
// context.
func (e *refEngine) RunIn(_ *congest.RunContext, cfg congest.Config, proto Protocol) (*Result, error) {
	return e.Run(cfg, proto)
}

// refNode is one node's runtime in the reference simulator.
type refNode struct {
	id            graph.NodeID
	g             *graph.Graph
	rng           *rand.Rand
	input         []byte
	shared        any
	memo          *congest.Memo // one per run, shared by its nodes
	output        any
	round         int
	outBuf        []congest.Msg
	out, in       []congest.Msg // the outbox posted and the inbox to deliver
	bad           bool          // a map Exchange addressed a non-neighbour
	badTo         graph.NodeID  // the smallest non-neighbour it named
	post, deliver chan []congest.Msg
	done          chan struct{}
}

var _ congest.Runtime = (*refNode)(nil)

func (v *refNode) ID() graph.NodeID            { return v.id }
func (v *refNode) N() int                      { return v.g.N() }
func (v *refNode) Neighbors() []graph.NodeID   { return v.g.Neighbors(v.id) }
func (v *refNode) Round() int                  { return v.round }
func (v *refNode) Rand() *rand.Rand            { return v.rng }
func (v *refNode) Input() []byte               { return v.input }
func (v *refNode) SetOutput(o any)             { v.output = o }
func (v *refNode) Shared() any                 { return v.shared }
func (v *refNode) Memo() *congest.Memo         { return v.memo }
func (v *refNode) Degree() int                 { return len(v.Neighbors()) }
func (v *refNode) Neighbor(p int) graph.NodeID { return v.Neighbors()[p] }
func (v *refNode) OutBuf() []congest.Msg       { return v.outBuf }
func (v *refNode) Port(u graph.NodeID) int     { return slices.Index(v.Neighbors(), u) }

// LendOut is a no-op: the reference copies every payload at collection.
func (v *refNode) LendOut() {}

// ExchangePorts hands the outbox to the coordinator and blocks until the
// round's inbox comes back. A closed deliver channel means the run aborted:
// the node's goroutine exits.
func (v *refNode) ExchangePorts(out []congest.Msg) []congest.Msg {
	v.post <- out
	in, ok := <-v.deliver
	if !ok {
		runtime.Goexit()
	}
	v.round++
	return in
}

// Exchange translates the map form to ports: the outbox holds exactly the
// map's non-nil entries, a non-neighbour address aborts the run at
// collection, and the inbox map holds the non-silent ports.
func (v *refNode) Exchange(out map[graph.NodeID]congest.Msg) map[graph.NodeID]congest.Msg {
	clear(v.outBuf)
	for u, m := range out {
		if m == nil {
			continue
		}
		if p := v.Port(u); p >= 0 {
			v.outBuf[p] = m
		} else if !v.bad || u < v.badTo {
			v.bad, v.badTo = true, u
		}
	}
	in := map[graph.NodeID]congest.Msg{}
	for p, m := range v.ExchangePorts(v.outBuf) {
		if m != nil {
			in[v.Neighbor(p)] = m
		}
	}
	return in
}

// Run executes proto on every node of cfg.Graph.
func (e *refEngine) Run(cfg congest.Config, proto Protocol) (*Result, error) {
	g := cfg.Graph
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}
	// Node i's private randomness is seeded by the i-th draw from the run
	// seed's source.
	seeds := rand.NewSource(cfg.Seed)
	nodes := make([]*refNode, g.N())
	memo := new(congest.Memo)
	for i := range nodes {
		v := &refNode{
			id: graph.NodeID(i), g: g, rng: rand.New(rand.NewSource(seeds.Int63())),
			shared: cfg.Shared, memo: memo, outBuf: make([]congest.Msg, g.Degree(graph.NodeID(i))),
			post: make(chan []congest.Msg), deliver: make(chan []congest.Msg), done: make(chan struct{}),
		}
		if cfg.Inputs != nil {
			v.input = cfg.Inputs[i]
		}
		nodes[i] = v
	}
	for _, v := range nodes {
		go func() {
			defer close(v.done)
			proto(v)
		}()
	}
	e.trace = nil
	// An abort comes with every node returned or parked for its inbox.
	fail := func(err error) (*Result, error) {
		for _, v := range nodes {
			close(v.deliver)
			<-v.done
		}
		return nil, err
	}

	// Budgets and the per-run reset are declared by the adversary, or by
	// what a wrapper's Unwrap returns.
	var owner any = cfg.Adversary
	if u, ok := owner.(interface{ Unwrap() any }); ok {
		owner = u.Unwrap()
	}
	perRound, _ := owner.(congest.PerRoundBudget)
	total, _ := owner.(congest.TotalBudget)
	if r, ok := owner.(congest.RunResetter); ok {
		r.ResetRun()
	}

	var st congest.Stats
	edgeMsgs := map[graph.Edge]int{}
	for round, live := 0, nodes; len(live) > 0; round++ {
		if round >= maxRounds {
			return fail(fmt.Errorf("%w (limit %d)", congest.ErrRoundLimit, maxRounds))
		}
		if round > 0 {
			for _, v := range live {
				v.deliver <- v.in
			}
		}
		// Every live node either exchanges or returns.
		var posted []*refNode
		for _, v := range live {
			select {
			case v.out = <-v.post:
				posted = append(posted, v)
			case <-v.done:
			}
		}
		if len(posted) == 0 {
			break
		}
		// The lowest node's first violation, ports ascending, aborts the run.
		sent := congest.Traffic{}
		for _, v := range posted {
			if v.bad {
				return fail(fmt.Errorf("congest: node %d sent to non-neighbor %d", v.id, v.badTo))
			}
			if len(v.out) > v.Degree() {
				return fail(fmt.Errorf("congest: node %d sent on %d ports, degree %d", v.id, len(v.out), v.Degree()))
			}
			for p, m := range v.out {
				if m == nil {
					continue
				}
				if cfg.Bandwidth > 0 && 8*len(m) > cfg.Bandwidth {
					return fail(fmt.Errorf("%w: node %d sent %d bits to neighbor %d, budget %d",
						congest.ErrBandwidthExceeded, v.id, 8*len(m), v.Neighbor(p), cfg.Bandwidth))
				}
				sent[graph.DirEdge{From: v.id, To: v.Neighbor(p)}] = m.Clone()
				v.out[p] = nil
			}
		}

		delivered := sent
		if cfg.Adversary != nil {
			view, err := congest.NewRoundTraffic(g, sent)
			if err != nil {
				return fail(err)
			}
			cfg.Adversary.Intercept(round, view)
			delivered = view.Delivered()
		}
		corrupted := refCorrupted(sent, delivered)
		if perRound != nil && len(corrupted) > perRound.PerRoundEdges() {
			return fail(fmt.Errorf("%w: %d edges touched in round %d, budget %d",
				congest.ErrBudgetExceeded, len(corrupted), round, perRound.PerRoundEdges()))
		}
		if total != nil && st.CorruptedEdgeRounds+len(corrupted) > total.TotalEdgeRounds() {
			return fail(fmt.Errorf("%w: %d total edge-rounds, budget %d",
				congest.ErrBudgetExceeded, st.CorruptedEdgeRounds+len(corrupted), total.TotalEdgeRounds()))
		}
		// After the budget verdicts, an injection on a non-edge (which
		// counted against the budget above) aborts, naming the smallest.
		var nonEdges []graph.DirEdge
		for de := range delivered {
			if !g.HasEdge(de.From, de.To) {
				nonEdges = append(nonEdges, de)
			}
		}
		if len(nonEdges) > 0 {
			de := slices.MinFunc(nonEdges, cmpDirEdge)
			return fail(fmt.Errorf("congest: adversary injected on non-edge (%d,%d)", de.From, de.To))
		}

		rt := congest.RoundTrace{Round: round, Msgs: []congest.TraceMsg{}, Corrupted: corrupted}
		// Canonical order: ascending sender, then receiver.
		for _, de := range slices.SortedFunc(maps.Keys(delivered), cmpDirEdge) {
			m := delivered[de]
			rt.Msgs = append(rt.Msgs, congest.TraceMsg{From: de.From, To: de.To, Data: m.Clone()})
			st.Messages++
			st.Bytes += len(m)
			st.MaxMsgBytes = max(st.MaxMsgBytes, len(m))
			edgeMsgs[de.Undirected()]++
			st.MaxEdgeCongestion = max(st.MaxEdgeCongestion, edgeMsgs[de.Undirected()])
		}
		e.trace = append(e.trace, rt)
		st.Rounds++
		st.CorruptedEdgeRounds += len(corrupted)
		for _, v := range posted {
			v.in = make([]congest.Msg, v.Degree())
			for p, u := range v.Neighbors() {
				v.in[p] = delivered[graph.DirEdge{From: u, To: v.id}].Clone()
			}
		}
		live = posted
	}

	res := &Result{Stats: st, Outputs: make([]any, g.N())}
	for i, v := range nodes {
		res.Outputs[i] = v.output
	}
	return res, nil
}

// cmpDirEdge orders directed edges by sender, then receiver.
func cmpDirEdge(a, b graph.DirEdge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// refCorrupted returns the undirected edges whose delivered message differs
// from the sent one in either direction — in presence or in bytes — as
// sorted endpoint pairs.
func refCorrupted(sent, delivered congest.Traffic) [][2]graph.NodeID {
	touched := map[[2]graph.NodeID]bool{}
	for _, tr := range []congest.Traffic{sent, delivered} {
		for de := range tr {
			a, inA := sent[de]
			b, inB := delivered[de]
			if inA != inB || !bytes.Equal(a, b) {
				e := de.Undirected()
				touched[[2]graph.NodeID{e.U, e.V}] = true
			}
		}
	}
	return slices.SortedFunc(maps.Keys(touched), func(a, b [2]graph.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}
