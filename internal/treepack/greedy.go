package treepack

import (
	"math"

	"mobilecongest/internal/graph"
)

// Greedy low-depth tree packing (Appendix C). The paper packs k trees by
// repeatedly computing an approximately min-cost depth-bounded spanning tree
// under exponentially load-weighted edge costs (Theorem C.2 bounds the final
// load by O(eta * alpha * log n) against any existential (k, d, eta)
// packing). The distributed min-cost shallow-tree subroutine of Ghaffari
// (Lemma C.1) is substituted by a centralized depth-bounded lightest-path
// tree (hop-limited Bellman-Ford), which is its own O(1)-approximation on
// the instances here; the README's "Substitutions" section records it.

// GreedyLowDepth packs k trees of depth at most depthBound rooted at root,
// greedily minimizing exponential load costs. etaGuess calibrates the cost
// exponent (use the load of the existential packing if known, else 1).
func GreedyLowDepth(g *graph.Graph, root graph.NodeID, k, depthBound, etaGuess int) *Packing {
	if etaGuess < 1 {
		etaGuess = 1
	}
	load := make(map[graph.Edge]int, g.M())
	// Cost base 3 makes one reuse of an edge (cost a^h(a-1) = 6) strictly
	// worse than a two-hop detour over fresh edges (cost 4), so the greedy
	// actually spreads; base 2 ties and degenerates. A tiny per-tree jitter
	// breaks the remaining ties differently in every iteration.
	const a = 3.0
	p := &Packing{Root: root}
	for i := 0; i < k; i++ {
		tree := i
		w := func(e graph.Edge) float64 {
			h := float64(load[e]) / float64(etaGuess)
			base := math.Pow(a, h+1) - math.Pow(a, h)
			j := float64((uint64(e.U)*2654435761+uint64(e.V)*40503+uint64(tree)*97)%1024) / 1024.0
			return base * (1 + 1e-6*j)
		}
		t := shallowLightTree(g, root, depthBound, w)
		if t == nil {
			break
		}
		for _, e := range t.Edges() {
			load[e]++
		}
		p.Trees = append(p.Trees, t)
	}
	return p
}

// shallowLightTree builds an approximately min-cost spanning tree of depth
// at most depthBound rooted at root via depth-capped Prim: repeatedly attach
// the non-tree node with the cheapest edge into the current tree whose
// parent sits strictly below the depth cap. Minimizing *tree* cost (not
// per-node path cost) is what lets later iterations route around loaded
// edges — a lightest-path tree would re-use every root edge in every
// iteration. Returns nil when the bound is infeasible for the greedy order.
func shallowLightTree(g *graph.Graph, root graph.NodeID, depthBound int, w func(graph.Edge) float64) *Tree {
	n := g.N()
	depth := make([]int, n)
	parent := make([]graph.NodeID, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	inTree[root] = true
	for added := 1; added < n; added++ {
		bestCost := math.Inf(1)
		bestV, bestP := graph.NodeID(-1), graph.NodeID(-1)
		for v := 0; v < n; v++ {
			if !inTree[v] || depth[v] >= depthBound {
				continue
			}
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if inTree[u] {
					continue
				}
				if c := w(graph.NewEdge(graph.NodeID(v), u)); c < bestCost {
					bestCost = c
					bestV = u
					bestP = graph.NodeID(v)
				}
			}
		}
		if bestV < 0 {
			return nil // depth cap exhausted before spanning
		}
		inTree[bestV] = true
		parent[bestV] = bestP
		depth[bestV] = depth[bestP] + 1
	}
	return &Tree{Root: root, Parent: parent}
}
