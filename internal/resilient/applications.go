package resilient

import (
	"math/rand"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// Applications of Theorem 3.5 (Section 3.3): ready-made Shared artifacts
// for the three graph families the paper highlights.

// CliqueShared builds the Theorem 1.6 preprocessing for the congested
// clique: the star packing with k=n, D_TP=2, eta=2. No trusted computation
// is needed — the clique defines the packing syntactically.
func CliqueShared(n int) *Shared {
	return NewShared(graph.Clique(n), treepack.CliqueStars(n))
}

// HardenedClique compiles a congested-clique payload against an f-mobile
// byzantine adversary (Theorem 1.6) and returns the compiled protocol
// together with its trusted preprocessing artifact, at the harness's
// standard repetition factor. This is the registry-adapter form: one call
// yields both halves the root protocol registry hands to a Scenario.
func HardenedClique(payload congest.Protocol, n, f int) (congest.Protocol, *Shared) {
	return Compile(payload, Config{Mode: SparseMode, F: f, Rep: 5}), CliqueShared(n)
}

// GeneralShared builds the Corollary 3.9 preprocessing for a
// (k, D_TP)-connected graph: a greedy low-depth packing computed in a
// trusted (fault-free) preprocessing phase, as the corollary permits.
func GeneralShared(g *graph.Graph, k, depthBound int) *Shared {
	root := graph.NodeID(g.N() - 1)
	p := treepack.GreedyLowDepth(g, root, k, depthBound, 1)
	return NewShared(g, p)
}

// ExpanderShared builds the Theorem 1.7 preprocessing by *running the
// distributed packing protocol of Lemma 3.10 under the byzantine adversary
// itself* (padded variant) and assembling the resulting weak packing: the
// expander application needs no trusted preprocessing. It returns the
// Shared artifact plus the rounds spent. The inner simulation runs on the
// default engine (results are identical on every engine).
func ExpanderShared(g *graph.Graph, k, z, pad int, seed int64, adv congest.Adversary) (*Shared, int, error) {
	res, err := congest.Run(congest.Config{
		Graph:     g,
		Seed:      seed,
		Adversary: adv,
	}, treepack.ExpanderPackingPadded(k, z, pad))
	if err != nil {
		return nil, 0, err
	}
	p := treepack.AssemblePacking(g.N(), k, res.Outputs)
	return NewShared(g, p), res.Stats.Rounds, nil
}

// RandomExpander draws the Theorem 1.7 graph family: a random d-regular
// graph (an expander w.h.p.).
func RandomExpander(n, d int, seed int64) *graph.Graph {
	return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed)))
}
