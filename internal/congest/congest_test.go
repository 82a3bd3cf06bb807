package congest

import (
	"errors"
	"testing"

	"mobilecongest/internal/graph"
)

// floodMax: every node floods the largest ID seen for diameter rounds; on a
// known-diameter graph all nodes converge to n-1.
func floodMax(rounds int) Protocol {
	return func(rt Runtime) {
		best := uint64(rt.ID())
		for r := 0; r < rounds; r++ {
			out := make(map[graph.NodeID]Msg)
			for _, v := range rt.Neighbors() {
				out[v] = U64Msg(best)
			}
			in := rt.Exchange(out)
			for _, m := range in {
				if v := U64(m); v > best {
					best = v
				}
			}
		}
		rt.SetOutput(best)
	}
}

func TestFloodMaxConverges(t *testing.T) {
	g := graph.Cycle(10)
	res, err := Run(Config{Graph: g, Seed: 1}, floodMax(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != 9 {
			t.Fatalf("node %d output %v, want 9", i, o)
		}
	}
	if res.Stats.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Stats.Rounds)
	}
	// Each round every node sends to both neighbours: 20 directed messages.
	if res.Stats.Messages != 100 {
		t.Fatalf("messages = %d, want 100", res.Stats.Messages)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Petersen()
	proto := func(rt Runtime) {
		acc := uint64(0)
		for r := 0; r < 4; r++ {
			out := make(map[graph.NodeID]Msg)
			for _, v := range rt.Neighbors() {
				out[v] = U64Msg(rt.Rand().Uint64())
			}
			in := rt.Exchange(out)
			for _, m := range in {
				acc ^= U64(m)
			}
		}
		rt.SetOutput(acc)
	}
	r1, err := Run(Config{Graph: g, Seed: 42}, proto)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Graph: g, Seed: 42}, proto)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Outputs {
		if r1.Outputs[i] != r2.Outputs[i] {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
	r3, _ := Run(Config{Graph: g, Seed: 43}, proto)
	same := true
	for i := range r1.Outputs {
		if r1.Outputs[i] != r3.Outputs[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical randomness")
	}
}

func TestRoundLimit(t *testing.T) {
	g := graph.Path(2)
	forever := func(rt Runtime) {
		for {
			rt.Exchange(map[graph.NodeID]Msg{})
		}
	}
	_, err := Run(Config{Graph: g, Seed: 1, MaxRounds: 10}, forever)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestSendToNonNeighborRejected(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 not adjacent
	bad := func(rt Runtime) {
		if rt.ID() == 0 {
			rt.Exchange(map[graph.NodeID]Msg{2: U64Msg(1)})
		} else {
			rt.Exchange(map[graph.NodeID]Msg{})
		}
	}
	if _, err := Run(Config{Graph: g, Seed: 1}, bad); err == nil {
		t.Fatal("sending to non-neighbor accepted")
	}
}

func TestInputsOutputs(t *testing.T) {
	g := graph.Clique(4)
	inputs := [][]byte{{1}, {2}, {3}, {4}}
	proto := func(rt Runtime) {
		out := make(map[graph.NodeID]Msg)
		for _, v := range rt.Neighbors() {
			out[v] = Msg(rt.Input())
		}
		in := rt.Exchange(out)
		sum := int(rt.Input()[0])
		for _, m := range in {
			sum += int(m[0])
		}
		rt.SetOutput(sum)
	}
	res, err := Run(Config{Graph: g, Seed: 1, Inputs: inputs}, proto)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(int) != 10 {
			t.Fatalf("node %d sum = %v, want 10", i, o)
		}
	}
}

// corruptAll is a misbehaving adversary claiming budget 1 but touching
// everything.
type corruptAll struct{}

func (corruptAll) Intercept(_ int, tr *RoundTraffic) {
	for s := range tr.All() {
		tr.Set(s, U64Msg(0xdeadbeef))
	}
}
func (corruptAll) PerRoundEdges() int { return 1 }

func TestBudgetEnforced(t *testing.T) {
	g := graph.Clique(4)
	_, err := Run(Config{Graph: g, Seed: 1, Adversary: corruptAll{}}, floodMax(2))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// injector delivers a forged message on an edge that carried nothing.
type injector struct{ edge graph.DirEdge }

func (a injector) Intercept(_ int, tr *RoundTraffic) {
	tr.SetEdge(a.edge, U64Msg(999))
}
func (a injector) PerRoundEdges() int { return 1 }

func TestInjectionOnSilentEdge(t *testing.T) {
	g := graph.Path(2)
	silent := func(rt Runtime) {
		in := rt.Exchange(map[graph.NodeID]Msg{})
		if rt.ID() == 1 {
			if m, ok := in[0]; ok {
				rt.SetOutput(U64(m))
				return
			}
		}
		rt.SetOutput(uint64(0))
	}
	adv := injector{edge: graph.DirEdge{From: 0, To: 1}}
	res, err := Run(Config{Graph: g, Seed: 1, Adversary: adv}, silent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(uint64) != 999 {
		t.Fatalf("injected message not delivered: %v", res.Outputs[1])
	}
	if res.Stats.CorruptedEdgeRounds != 1 {
		t.Fatalf("CorruptedEdgeRounds = %d, want 1", res.Stats.CorruptedEdgeRounds)
	}
}

func TestEarlyTermination(t *testing.T) {
	// Node 0 stops after 1 round, others run 3; engine must not deadlock.
	g := graph.Clique(3)
	proto := func(rt Runtime) {
		rounds := 3
		if rt.ID() == 0 {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			out := make(map[graph.NodeID]Msg)
			for _, v := range rt.Neighbors() {
				out[v] = U64Msg(uint64(rt.ID()))
			}
			rt.Exchange(out)
		}
		rt.SetOutput(true)
	}
	res, err := Run(Config{Graph: g, Seed: 1}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Stats.Rounds)
	}
}

func TestStatsCongestion(t *testing.T) {
	g := graph.Path(2)
	proto := func(rt Runtime) {
		for r := 0; r < 7; r++ {
			out := map[graph.NodeID]Msg{}
			if rt.ID() == 0 {
				out[1] = U64Msg(1)
			}
			rt.Exchange(out)
		}
	}
	res, err := Run(Config{Graph: g, Seed: 1}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxEdgeCongestion != 7 {
		t.Fatalf("congestion = %d, want 7", res.Stats.MaxEdgeCongestion)
	}
	if res.Stats.MaxMsgBytes != 8 {
		t.Fatalf("MaxMsgBytes = %d, want 8", res.Stats.MaxMsgBytes)
	}
}

// doubledExchange is a compiler-style payload round that costs two physical
// rounds: the payload's traffic, then a silent round. The first round's
// inbox is copied out before the second exchange reuses the engine's.
func doubledExchange(rt Runtime) func(out []Msg) []Msg {
	return func(out []Msg) []Msg {
		in := rt.ExchangePorts(out)
		kept := make([]Msg, len(in))
		for p, m := range in {
			kept[p] = m.Clone()
		}
		rt.ExchangePorts(nil)
		return kept
	}
}

func TestWrappedRuntime(t *testing.T) {
	g := graph.Path(2)
	// The wrapper doubles every exchange: payload sees one virtual round
	// per two physical rounds.
	proto := func(rt Runtime) {
		w := &WrappedRuntime{Base: rt}
		w.ExchangePortsFn = doubledExchange(rt)
		payload := func(v Runtime) {
			out := map[graph.NodeID]Msg{}
			for _, nb := range v.Neighbors() {
				out[nb] = U64Msg(uint64(v.ID()) + 100)
			}
			in := v.Exchange(out)
			var got uint64
			for _, m := range in {
				got = U64(m)
			}
			v.SetOutput(got)
		}
		payload(w)
		if w.Round() != 1 {
			panic("virtual round count wrong")
		}
	}
	res, err := Run(Config{Graph: g, Seed: 1}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("physical rounds = %d, want 2", res.Stats.Rounds)
	}
	if res.Outputs[0].(uint64) != 101 || res.Outputs[1].(uint64) != 100 {
		t.Fatalf("outputs wrong: %v", res.Outputs)
	}
}

func TestWireCodec(t *testing.T) {
	if U64(PutU64(nil, 0x1122334455667788)) != 0x1122334455667788 {
		t.Fatal("U64 round trip failed")
	}
	if U64([]byte{0x11}) != 0x1100000000000000 {
		t.Fatal("short read should zero-pad")
	}
	if U32(PutU32(nil, 0xdeadbeef)) != 0xdeadbeef {
		t.Fatal("U32 round trip failed")
	}
	w := AppendWords64(nil, Msg{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if len(w) != 2 {
		t.Fatalf("AppendWords64 length %d, want 2", len(w))
	}
}

func TestSharedPassthrough(t *testing.T) {
	g := graph.Path(2)
	type artifact struct{ tag string }
	proto := func(rt Runtime) {
		a, ok := rt.Shared().(*artifact)
		rt.SetOutput(ok && a.tag == "hello")
	}
	res, err := Run(Config{Graph: g, Seed: 1, Shared: &artifact{tag: "hello"}}, proto)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o != true {
			t.Fatalf("node %d did not see the shared artifact", i)
		}
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := Run(Config{}, func(Runtime) {}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(Config{Graph: graph.Path(2), Inputs: [][]byte{{1}}}, func(Runtime) {}); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
}
