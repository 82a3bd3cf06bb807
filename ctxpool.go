package mobilecongest

import (
	"slices"
	"sync"

	"mobilecongest/internal/congest"
)

// The run-context pool: idle congest.RunContexts that every Plan of the
// process shares, each still bound to the registry-built graph of its last
// run. A Plan takes its cells' graphs from the pool and its workers take the
// contexts bound to them, so a sweep over topologies an earlier Plan served
// (a server answering one spec after another with new seeds) neither
// rebuilds the graphs, nor recomputes their diameters, nor lays out and
// grows a run's buffers again. A context also keeps the last built-in
// adversary its cells built by name, which a later cell on it restarts from
// its own seed instead of building again; nothing else pooled depends on a
// seed.

// graphKey names a registry-built graph: the topology family, its
// parameters, and the topology registry's generation before the build, so
// a RegisterTopology replacement retires every graph built earlier.
type graphKey struct {
	topo string
	n, k int
	gen  uint64
}

// poolSlots caps the layout slots (directed edges) of the graphs the pool's
// contexts are bound to, summed: about one n=32768 circulant (k=4), or 65
// clique64 contexts. A parked context is closed: it keeps no run memo or
// node scratch, only its layout, port slabs and round buffers, which grow
// with its slots, and its nodes' RNGs, about 5 KB a node that drew
// randomness. On cliques 16 to 48 that is about 180 bytes a slot after
// floodmax cells and 500 after hardened-clique ones, some 47 MB and
// 130 MB for a full pool (TestPoolBoundsParkedBytes holds it under 2 KB a
// slot). On sparse graphs the RNGs dominate: secure-broadcast on cycles
// reads about 3.3 KB a slot.
const poolSlots = 1 << 18

// advKey names a built-in adversary a Plan cell builds by name: its name,
// its f, and the adversary registry's generation before the Plan built its
// cells, so a RegisterAdversary replacement retires every instance built
// earlier. A cell whose adversary cannot be kept has the zero key.
type advKey struct {
	name string
	f    int
	gen  uint64
}

// reseeder is an adversary a context can keep across cells: the engine
// resets it at the start of every run, and Reseed moves that restart to
// another seed, so a kept instance draws as a fresh one.
type reseeder interface {
	Adversary
	congest.RunResetter
	Reseed(seed int64)
}

// keptAdversary is the adversary a context keeps: the last one its cells
// built under a non-zero key, on the context's graph.
type keptAdversary struct {
	key advKey
	adv reseeder
}

// idleContext is one parked (closed) context, the graph it is bound to,
// and the adversary it keeps.
type idleContext struct {
	key graphKey
	g   *Graph
	rc  *congest.RunContext
	adv keptAdversary
}

// contextPool keeps idle contexts in the order they were parked, least
// recently parked first. Lookups scan it: it holds about as many contexts
// as the busiest moment had Plan workers per graph.
type contextPool struct {
	mu    sync.Mutex
	idle  []idleContext
	slots int
}

// runContexts is the process's pool.
var runContexts contextPool

// slotsOf counts g's layout slots: one per directed edge.
func slotsOf(g *Graph) int { return 2 * g.M() }

// graph returns the graph of the most recently parked context under key,
// or nil when none is parked.
func (p *contextPool) graph(key graphKey) *Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			return p.idle[i].g
		}
	}
	return nil
}

// take removes the most recently parked context bound to g under key and
// returns it with the adversary it keeps, or nil when none is parked.
func (p *contextPool) take(key graphKey, g *Graph) (*congest.RunContext, keptAdversary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if e := p.idle[i]; e.key == key && e.g == g {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.slots -= slotsOf(g)
			return e.rc, e.adv
		}
	}
	return nil, keptAdversary{}
}

// park closes rc, whose last run was on g, and parks it under key with the
// adversary it keeps. It forgets the contexts of an earlier registry
// generation, and then the least recently parked ones while the pool holds
// more than poolSlots; rc itself is not kept when g alone is over the cap.
func (p *contextPool) park(key graphKey, g *Graph, rc *congest.RunContext, adv keptAdversary) {
	rc.Close()
	if slotsOf(g) > poolSlots {
		return
	}
	gen := topologies.Generation()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, idleContext{key: key, g: g, rc: rc, adv: adv})
	p.slots += slotsOf(g)
	p.idle = slices.DeleteFunc(p.idle, func(e idleContext) bool {
		stale := e.key.gen != gen
		if stale {
			p.slots -= slotsOf(e.g)
		}
		return stale
	})
	for p.slots > poolSlots {
		p.slots -= slotsOf(p.idle[0].g)
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// PoolStats describes what the process's run-context pool holds.
type PoolStats struct {
	Contexts    int `json:"contexts"`    // parked run contexts
	Slots       int `json:"slots"`       // their graphs' layout slots, summed (capped at 2^18)
	Adversaries int `json:"adversaries"` // adversaries kept with them, one at most each
}

// ContextPoolStats reports what the run-context pool that every Plan
// shares holds now.
func ContextPoolStats() PoolStats {
	runContexts.mu.Lock()
	defer runContexts.mu.Unlock()
	st := PoolStats{Contexts: len(runContexts.idle), Slots: runContexts.slots}
	for _, e := range runContexts.idle {
		if e.adv.adv != nil {
			st.Adversaries++
		}
	}
	return st
}
