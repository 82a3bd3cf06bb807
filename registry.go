package mobilecongest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/registry"
)

// Name-keyed topology and adversary registries. They let scenarios, sweeps,
// and the CLI refer to graph families and attack models by string — the glue
// that makes parameter grids expressible without importing the internal
// packages. Built-in entries cover the families and adversaries the paper's
// experiments exercise; downstream code can add its own with RegisterTopology
// and RegisterAdversary.

// TopologyFunc builds a graph of the named family. n is the node count; k is
// the family's secondary parameter (chord distance for circulants, rows for
// grids) and is ignored by families that have none.
type TopologyFunc func(n, k int) (*Graph, error)

// AdversaryFunc builds a named adversary over g. f is the per-round edge
// strength (ignored by "none") and seed drives the adversary's randomness.
// A nil Adversary (fault-free) is a valid return.
type AdversaryFunc func(g *Graph, f int, seed int64) (Adversary, error)

// advEntry is a registered adversary family. builtIn marks the families
// registered here, which hand the seed to their instance unchanged and
// derive nothing else from it, so a Plan may restart one of their instances
// from another cell's seed (Reseed) instead of building it again.
type advEntry struct {
	build   AdversaryFunc
	builtIn bool
}

var (
	topologies  = registry.New[TopologyFunc]("mobilecongest", "topology")
	adversaries = registry.New[advEntry]("mobilecongest", "adversary")
)

// RegisterTopology adds (or replaces) a named topology family.
func RegisterTopology(name string, fn TopologyFunc) { topologies.Register(name, fn) }

// RegisterAdversary adds (or replaces) a named adversary family.
func RegisterAdversary(name string, fn AdversaryFunc) {
	adversaries.Register(name, advEntry{build: fn})
}

// BuildTopology instantiates a registered topology.
func BuildTopology(name string, n, k int) (*Graph, error) {
	fn, err := topologies.Get(name)
	if err != nil {
		return nil, err
	}
	return fn(n, k)
}

// HasTopology reports whether a topology family is registered under name.
func HasTopology(name string) bool { return topologies.Has(name) }

// HasAdversary reports whether an adversary family is registered under name.
func HasAdversary(name string) bool { return adversaries.Has(name) }

// BuildAdversary instantiates a registered adversary.
func BuildAdversary(name string, g *Graph, f int, seed int64) (Adversary, error) {
	e, err := adversaries.Get(name)
	if err != nil {
		return nil, err
	}
	return e.build(g, f, seed)
}

// Topologies lists the registered topology names, sorted.
func Topologies() []string { return topologies.Names() }

// Adversaries lists the registered adversary names, sorted.
func Adversaries() []string { return adversaries.Names() }

func init() {
	RegisterTopology("clique", func(n, _ int) (*Graph, error) {
		return graph.Clique(n), nil
	})
	RegisterTopology("cycle", func(n, _ int) (*Graph, error) {
		return graph.Cycle(n), nil
	})
	RegisterTopology("path", func(n, _ int) (*Graph, error) {
		return graph.Path(n), nil
	})
	RegisterTopology("circulant", func(n, k int) (*Graph, error) {
		if k <= 0 {
			k = 2
		}
		return graph.Circulant(n, k), nil
	})
	RegisterTopology("grid", func(n, k int) (*Graph, error) {
		rows := k
		if rows <= 0 {
			// Default to the most-square factorization.
			for rows = int(math.Sqrt(float64(n))); rows > 1 && n%rows != 0; rows-- {
			}
			if rows < 1 {
				rows = 1
			}
		}
		if n%rows != 0 {
			return nil, fmt.Errorf("mobilecongest: grid rows %d does not divide n=%d", rows, n)
		}
		return graph.Grid(rows, n/rows), nil
	})
	RegisterTopology("hypercube", func(n, _ int) (*Graph, error) {
		if n <= 0 || n&(n-1) != 0 {
			return nil, fmt.Errorf("mobilecongest: hypercube needs a power-of-two n, got %d", n)
		}
		return graph.Hypercube(bits.TrailingZeros(uint(n))), nil
	})
	RegisterTopology("expander", func(n, k int) (*Graph, error) {
		d := k
		if d <= 0 {
			d = 8
		}
		if d >= n || n*d%2 != 0 {
			return nil, fmt.Errorf("mobilecongest: expander needs degree < n and n*degree even, got n=%d degree=%d", n, d)
		}
		// The draw is seeded from (n, d), so a given cell always sweeps the
		// very same graph — the family is a registry of fixed expanders, not
		// a fresh sample per run.
		return graph.RandomRegular(n, d, rand.New(rand.NewSource(int64(n)*1_000_003+int64(d)))), nil
	})

	builtIn := func(name string, fn AdversaryFunc) {
		adversaries.Register(name, advEntry{build: fn, builtIn: true})
	}
	builtIn("none", func(*Graph, int, int64) (Adversary, error) {
		return nil, nil
	})
	builtIn("eavesdrop", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileEavesdropper(g, f, seed), nil
	})
	builtIn("static-eavesdrop", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewStaticEavesdropper(g, f, seed), nil
	})
	mobileByz := func(cor adversary.Corruption) AdversaryFunc {
		return func(g *Graph, f int, seed int64) (Adversary, error) {
			return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, cor), nil
		}
	}
	builtIn("flip", mobileByz(adversary.CorruptFlip))
	builtIn("drop", mobileByz(adversary.CorruptDrop))
	builtIn("randomize", mobileByz(adversary.CorruptRandomize))
	builtIn("swap", mobileByz(adversary.CorruptSwap))
	builtIn("inject", mobileByz(adversary.CorruptInject))
	builtIn("busiest", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectBusiest, adversary.CorruptFlip), nil
	})
	builtIn("static-flip", func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewStaticByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip), nil
	})
}
