package secure

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Mobile-secure multicast (the second half of Lemma A.3): R unicast
// instances (s_j, t_j, m_j) run in parallel in O(D + R) rounds. The key
// phase spends R rounds exchanging one fresh key per edge per instance;
// instance j's static unicast then runs with its own key layer, staggered by
// one round (each instance sends at most one message per edge, so the
// stagger keeps per-round edge traffic at one message per instance slot —
// the role the random-delay scheduler plays in the paper).

// MulticastInstance is one (source, target) pair; the source's secret is
// read from its Input at offset 8*j.
type MulticastInstance struct {
	Source graph.NodeID
	Target graph.NodeID
}

// MulticastShared is the preprocessing: one BFS tree per instance target.
type MulticastShared struct {
	G         *graph.Graph
	Instances []MulticastInstance
	Trees     []*UnicastShared
}

// NewMulticastShared builds the artifact.
func NewMulticastShared(g *graph.Graph, instances []MulticastInstance) *MulticastShared {
	sh := &MulticastShared{G: g, Instances: instances}
	for _, inst := range instances {
		sh.Trees = append(sh.Trees, NewUnicastShared(g, inst.Target))
	}
	return sh
}

// MaxDepth is the deepest instance tree.
func (m *MulticastShared) MaxDepth() int {
	d := 0
	for _, t := range m.Trees {
		if td := t.MaxDepth(); td > d {
			d = td
		}
	}
	return d
}

// MulticastResult collects the secrets recovered at this node (indexed by
// instance; zero where this node is not the target).
type MulticastResult struct {
	Secrets []uint64
}

// MobileSecureMulticast solves all R instances in R + (D+1) + R-1 rounds.
// Security per instance j holds provided the adversary's key-round-j edges
// do not disconnect s_j from t_j (Lemma A.3's condition).
func MobileSecureMulticast() congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*MulticastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.MulticastShared")
		}
		me := rt.ID()
		deg := rt.Degree()
		r := len(sh.Instances)

		// Key phase: one key per edge per instance, chosen by the higher-ID
		// endpoint in round j. keys[j][p] is instance j's key on port p.
		keys := make([][][]byte, r)
		for j := 0; j < r; j++ {
			keys[j] = make([][]byte, deg)
			out := rt.OutBuf()
			for p := 0; p < deg; p++ {
				if v := rt.Neighbor(p); me > v {
					k := make([]byte, 8)
					rt.Rand().Read(k)
					keys[j][p] = k
					out[p] = congest.Msg(k).Clone()
				}
			}
			in := rt.ExchangePorts(out)
			for p, m := range in {
				if m != nil && me < rt.Neighbor(p) {
					keys[j][p] = m.Clone()
				}
			}
		}

		// Simulation phase: instance j's static unicast round x runs in
		// physical round j+x (stagger). Each instance's per-edge message
		// schedule mirrors runStaticUnicast.
		type instState struct {
			edgeVal []uint64
			secret  uint64
		}
		states := make([]*instState, r)
		for j := range states {
			states[j] = &instState{edgeVal: make([]uint64, deg)}
			if sh.Instances[j].Source == me {
				off := 8 * j
				input := rt.Input()
				if off+8 <= len(input) {
					states[j].secret = congest.U64(input[off:])
				}
			}
		}
		depthMax := sh.MaxDepth()
		totalRounds := r + depthMax // staggered windows
		for phys := 0; phys < totalRounds; phys++ {
			out := rt.OutBuf()
			appendMsg := func(p int, j int, val uint64) {
				m := congest.PutU64(congest.Msg{byte(j)}, val)
				out[p] = append(out[p], xorTail(m, keys[j][p])...)
			}
			for j := 0; j < r; j++ {
				x := phys - j // instance-local round
				if x < 0 || x > depthMax {
					continue
				}
				tree := sh.Trees[j]
				st := states[j]
				if x == 0 {
					// Non-tree edges: higher endpoint draws.
					for p := 0; p < deg; p++ {
						if v := rt.Neighbor(p); isTreeEdgeOf(tree, me, v) || me < v {
							continue
						}
						val := rt.Rand().Uint64()
						st.edgeVal[p] = val
						appendMsg(p, j, val)
					}
					continue
				}
				// Depth slot: node at depth d sends at x = depthMax-d+1.
				if me != tree.Target && tree.Depth[me] == depthMax-x+1 {
					var acc uint64
					parentPort := rt.Port(tree.Parent[me])
					for p := 0; p < deg; p++ {
						if p != parentPort {
							acc ^= st.edgeVal[p]
						}
					}
					if sh.Instances[j].Source == me {
						acc ^= st.secret
					}
					if parentPort >= 0 {
						st.edgeVal[parentPort] = acc
						appendMsg(parentPort, j, acc)
					}
				}
			}
			in := rt.ExchangePorts(out)
			for p, m := range in {
				if m == nil {
					continue
				}
				for off := 0; off+9 <= len(m); off += 9 {
					j := int(m[off])
					if j < 0 || j >= r {
						continue
					}
					dec := xorTail(append(congest.Msg{m[off]}, m[off+1:off+9]...), keys[j][p])
					states[j].edgeVal[p] = congest.U64(dec[1:])
				}
			}
		}
		res := MulticastResult{Secrets: make([]uint64, r)}
		for j := 0; j < r; j++ {
			if sh.Instances[j].Target != me {
				continue
			}
			var acc uint64
			for p := 0; p < deg; p++ {
				acc ^= states[j].edgeVal[p]
			}
			if sh.Instances[j].Source == me {
				acc ^= states[j].secret
			}
			res.Secrets[j] = acc
		}
		rt.SetOutput(res)
	}
}

func isTreeEdgeOf(t *UnicastShared, a, b graph.NodeID) bool {
	return t.Parent[a] == b || t.Parent[b] == a
}

// xorTail XORs the key into the 8 payload bytes after the 1-byte header.
func xorTail(m congest.Msg, key []byte) congest.Msg {
	out := m.Clone()
	for i := 0; i < 8 && i < len(key) && 1+i < len(out); i++ {
		out[1+i] ^= key[i]
	}
	return out
}

// MulticastRounds returns the protocol's fixed round count.
func MulticastRounds(sh *MulticastShared) int {
	return len(sh.Instances) + len(sh.Instances) + sh.MaxDepth()
}
