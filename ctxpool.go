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
// grows a run's buffers again. A context travels with the built-in adversary
// it keeps (a warmContext), which a later run restarts from its own seed
// instead of building again; a Register call on the adversary registry
// retires it, and a user-registered adversary is built for every run.
// Nothing else pooled depends on a seed.

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
// clique64 contexts. A parked context is closed: it keeps no run memo, node
// scratch or node RNGs, only its layout, port slabs and round buffers,
// which grow with its slots. On cliques 16 to 48 that is about 185 bytes a
// slot after floodmax cells and 390 after hardened-clique ones, some 48 MB
// and 100 MB for a full pool; secure-broadcast on cycles 64 to 256 reads
// about 890–920 bytes a slot as the process's first such Plan
// (TestPoolBoundsParkedBytes holds every case under 2 KB a slot).
const poolSlots = 1 << 18

// advKey names a kept adversary: its name, its f, and the adversary
// registry's generation before it was built, so any Register call since
// retires it.
type advKey struct {
	name string
	f    int
	gen  uint64
}

// reseeder is an adversary a context can keep across runs: the engine
// resets it at the start of every run, and Reseed moves that restart to
// another seed, so a kept instance draws as a fresh one.
type reseeder interface {
	Adversary
	congest.RunResetter
	Reseed(seed int64)
}

// warmContext is a run context and the adversary it keeps: the last
// built-in one its runs built by name, on the context's graph. Its owner (a
// Scenario, a Plan worker, the pool) runs it on one graph only.
type warmContext struct {
	rc  *congest.RunContext
	key advKey
	adv reseeder
}

// adversary returns the adversary registered under name, with strength f,
// for a run on g seeded seed. The kept one serves when its key is current,
// restarted from seed; otherwise it builds one, and keeps it when it is a
// built-in reseeder and no Register call ran meanwhile: a built-in entry
// hands seed to its instance and derives nothing else from it, while a
// user's AdversaryFunc may.
func (w *warmContext) adversary(name string, g *Graph, f int, seed int64) (Adversary, error) {
	key := advKey{name: name, f: f, gen: adversaries.Generation()}
	if w.adv != nil && w.key == key {
		w.adv.Reseed(seed)
		return w.adv, nil
	}
	adv, err := BuildAdversary(name, g, f, seed)
	if err != nil {
		return nil, err
	}
	// An unchanged generation means the built-in mark read here is the
	// one of the entry BuildAdversary used.
	if r, ok := adv.(reseeder); ok && adversaries.BuiltIn(name) && adversaries.Generation() == key.gen {
		w.key, w.adv = key, r
	}
	return adv, nil
}

// idleContext is one parked (closed) context, with the adversary it keeps,
// and the graph it is bound to.
type idleContext struct {
	key graphKey
	g   *Graph
	warmContext
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
// returns it, or a warmContext with no context when none is parked.
func (p *contextPool) take(key graphKey, g *Graph) warmContext {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if e := p.idle[i]; e.key == key && e.g == g {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.slots -= slotsOf(g)
			return e.warmContext
		}
	}
	return warmContext{}
}

// park closes w's context, whose last run was on g, and parks it under key
// with the adversary it keeps. It forgets the contexts of an earlier registry
// generation, and then the least recently parked ones while the pool holds
// more than poolSlots; w itself is not kept when g alone is over the cap.
func (p *contextPool) park(key graphKey, g *Graph, w warmContext) {
	w.rc.Close()
	if slotsOf(g) > poolSlots {
		return
	}
	gen := topologies.Generation()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, idleContext{key: key, g: g, warmContext: w})
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
		if e.adv != nil {
			st.Adversaries++
		}
	}
	return st
}
