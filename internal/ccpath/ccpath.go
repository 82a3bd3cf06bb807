// Package ccpath implements the f-mobile-resilient compiler from FT cycle
// covers (Section 5, Theorem 5.5): every simulated round iterates the good
// colouring's classes; within a class, each edge's two directed messages are
// pipelined repeatedly over all k = 2f+1 disjoint paths, and the receiver
// takes the majority over all (path, arrival-time) copies (Lemma 5.6).
package ccpath

import (
	"fmt"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/cyclecover"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/vote"
)

// flow is one directed transmission: edge e's message from From to To,
// pipelined along Path (oriented From -> To).
type flow struct {
	edgeIdx int
	from    graph.NodeID
	path    []graph.NodeID
}

// hop is one node's role in a flow.
type hop struct {
	flowID int
	prev   graph.NodeID // -1 at the source
	next   graph.NodeID // -1 at the sink
}

// Shared is the compiler's preprocessing artifact: the cover plus per-node
// per-class routing tables.
type Shared struct {
	G     *graph.Graph
	Cover *cyclecover.Cover
	// hops[class][node] lists the node's roles in that class's flows.
	hops [][][]hop
	// flows[class] lists the class's flows.
	flows [][]flow
	// Payload is the payload protocol's own Shared artifact.
	Payload any
}

// NewShared builds routing tables from a cover.
func NewShared(c *cyclecover.Cover) *Shared {
	s := &Shared{G: c.G, Cover: c}
	s.hops = make([][][]hop, c.NumColors)
	s.flows = make([][]flow, c.NumColors)
	for cls := 0; cls < c.NumColors; cls++ {
		s.hops[cls] = make([][]hop, c.G.N())
	}
	for i, e := range c.G.Edges() {
		cls := c.Color[i]
		for _, p := range c.Paths[i] {
			// Two flows per path: U->V along p, V->U along the reverse.
			fwd := flow{edgeIdx: i, from: e.U, path: p}
			rev := make([]graph.NodeID, len(p))
			for j := range p {
				rev[j] = p[len(p)-1-j]
			}
			bwd := flow{edgeIdx: i, from: e.V, path: rev}
			for _, fl := range []flow{fwd, bwd} {
				id := len(s.flows[cls])
				s.flows[cls] = append(s.flows[cls], fl)
				for j, x := range fl.path {
					h := hop{flowID: id, prev: -1, next: -1}
					if j > 0 {
						h.prev = fl.path[j-1]
					}
					if j+1 < len(fl.path) {
						h.next = fl.path[j+1]
					}
					s.hops[cls][x] = append(s.hops[cls][x], h)
				}
			}
		}
	}
	return s
}

// WindowRounds is the per-class pipeline window (Lemma 5.6's
// 2f*dilation + dilation + 1).
func (s *Shared) WindowRounds(f int) int {
	return 2*f*s.Cover.Dilation + s.Cover.Dilation + 1
}

// RoundsPerSimRound is the physical cost of one simulated round.
func (s *Shared) RoundsPerSimRound(f int) int {
	return s.Cover.NumColors * s.WindowRounds(f)
}

// Compile wraps a payload protocol (messages <= 8 bytes) into an f-mobile-
// resilient protocol, for f <= (K-1)/2 of the cover. The run's Shared must
// be this package's *Shared.
func Compile(payload congest.Protocol, f int) congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*Shared)
		if !ok {
			panic("ccpath: run Config.Shared must be *ccpath.Shared")
		}
		if 2*f+1 > sh.Cover.K {
			panic(fmt.Sprintf("ccpath: cover has K=%d paths, cannot defend f=%d", sh.Cover.K, f))
		}
		sim := &simulator{rt: rt, sh: sh, f: f}
		w := &congest.WrappedRuntime{Base: rt, ExchangePortsFn: sim.exchange, ShadowShared: sh.Payload}
		payload(w)
	}
}

type simulator struct {
	rt congest.Runtime
	sh *Shared
	f  int
}

// exchange simulates one payload round (Theorem 5.5's per-round protocol)
// for the payload's port outbox, returning its port inbox. The pipelined
// window rounds run on the port boundary.
func (s *simulator) exchange(out []congest.Msg) []congest.Msg {
	me := s.rt.ID()
	g := s.sh.G
	window := s.sh.WindowRounds(s.f)
	dilation := s.sh.Cover.Dilation
	result := make([]congest.Msg, s.rt.Degree())

	for cls := 0; cls < s.sh.Cover.NumColors; cls++ {
		myHops := s.sh.hops[cls][me]
		flows := s.sh.flows[cls]
		// relay[flowID] is the latest value received on the flow.
		relay := make(map[int]congest.Msg)
		// votes[flowID-of-incoming-edge][value] accumulates sink copies.
		votes := make(map[int]map[string]int)
		for t := 0; t < window; t++ {
			pout := s.rt.OutBuf()
			for _, h := range myHops {
				if h.next < 0 {
					continue
				}
				var m congest.Msg
				if h.prev < 0 {
					// Source: my payload message for this edge-direction
					// (explicit empty marker so silent edges still flood).
					fl := flows[h.flowID]
					e := g.Edges()[fl.edgeIdx]
					var payload congest.Msg
					if p := s.rt.Port(e.Other(me)); p < len(out) {
						payload = out[p]
					}
					m = encodePayload(payload)
				} else {
					m = relay[h.flowID]
				}
				if m == nil {
					continue
				}
				// One flow per directed edge within a class, so plain
				// concatenation order is stable: tag with flowID byte for
				// robustness against classes touching a node twice.
				p := s.rt.Port(h.next)
				pout[p] = appendFlowMsg(pout[p], h.flowID, m)
			}
			in := s.rt.ExchangePorts(pout)
			for _, h := range myHops {
				if h.prev < 0 {
					continue
				}
				p := s.rt.Port(h.prev)
				if p < 0 || in[p] == nil {
					continue
				}
				fm := extractFlowMsg(in[p], h.flowID)
				if fm == nil {
					continue
				}
				relay[h.flowID] = fm
				if h.next < 0 && t >= dilation-1 {
					if votes[h.flowID] == nil {
						votes[h.flowID] = make(map[string]int)
					}
					votes[h.flowID][string(fm)]++
				}
			}
		}
		// Majority over all copies across this class's incoming flows,
		// grouped per originating directed edge.
		perEdge := make(map[graph.NodeID]map[string]int)
		for flowID, vs := range votes {
			fl := flows[flowID]
			e := g.Edges()[fl.edgeIdx]
			if e.Other(fl.from) != me {
				continue
			}
			sender := fl.from
			if perEdge[sender] == nil {
				perEdge[sender] = make(map[string]int)
			}
			for val, c := range vs {
				perEdge[sender][val] += c
			}
		}
		for sender, vs := range perEdge {
			total := 0
			for _, c := range vs {
				total += c
			}
			best, bestCnt := vote.Winner(vs)
			if 2*bestCnt > total {
				if dec := decodePayload([]byte(best)); dec != nil {
					result[s.rt.Port(sender)] = dec
				}
			}
		}
	}
	return result
}

// encodePayload marks presence so "no message" floods distinguishably.
func encodePayload(m congest.Msg) congest.Msg {
	if m == nil {
		return congest.Msg{0}
	}
	return append(congest.Msg{1}, m...)
}

// decodePayload returns nil for the explicit empty marker.
func decodePayload(b []byte) congest.Msg {
	if len(b) == 0 || b[0] == 0 {
		return nil
	}
	return congest.Msg(b[1:]).Clone()
}

// appendFlowMsg appends a (flowID, len, payload) section.
func appendFlowMsg(dst congest.Msg, flowID int, m congest.Msg) congest.Msg {
	dst = append(dst, byte(flowID>>8), byte(flowID), byte(len(m)))
	return append(dst, m...)
}

// extractFlowMsg finds the section for flowID (nil if absent/corrupt).
func extractFlowMsg(m congest.Msg, flowID int) congest.Msg {
	i := 0
	for i+3 <= len(m) {
		id := int(m[i])<<8 | int(m[i+1])
		l := int(m[i+2])
		i += 3
		if i+l > len(m) {
			return nil
		}
		if id == flowID {
			return congest.Msg(m[i : i+l]).Clone()
		}
		i += l
	}
	return nil
}
