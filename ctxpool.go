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
// grows a run's buffers again. Nothing pooled depends on a seed.

// graphKey names a registry-built graph: the topology family, its
// parameters, and the topology registry's generation before the build, so
// a RegisterTopology replacement retires every graph built earlier.
type graphKey struct {
	topo string
	n, k int
	gen  uint64
}

// poolSlots caps the layout slots (directed edges) of the graphs the pool's
// contexts are bound to, summed. A context's layout, port slabs and round
// buffers all grow with its slots, so for plain protocols the cap bounds
// what the pool keeps alive: about the state of one n=32768 circulant
// (k=4), some 60 MB, or of 65 clique64 contexts. It does not bound a
// compiler's: a context keeps its node scratch and run memo while it is
// parked, about 11 KB a slot for hardened-clique (some 44 MB for clique64),
// so a pool full of those holds about 2.9 GB (ROADMAP.md, "Bound what the
// run-context pool keeps by bytes").
const poolSlots = 1 << 18

// idleContext is one parked context and the graph it is bound to.
type idleContext struct {
	key graphKey
	g   *Graph
	rc  *congest.RunContext
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

// take removes and returns the most recently parked context bound to g
// under key, or nil when none is parked.
func (p *contextPool) take(key graphKey, g *Graph) *congest.RunContext {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if e := p.idle[i]; e.key == key && e.g == g {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.slots -= slotsOf(g)
			return e.rc
		}
	}
	return nil
}

// park parks rc, whose last run was on g, under key. It drops the contexts
// of an earlier registry generation, and then the least recently parked
// ones while the pool holds more than poolSlots; dropped contexts (rc too,
// when g alone is over the cap) are closed.
func (p *contextPool) park(key graphKey, g *Graph, rc *congest.RunContext) {
	rc.Park()
	if slotsOf(g) > poolSlots {
		rc.Close()
		return
	}
	gen := topologies.Generation()
	var drop []*congest.RunContext
	p.mu.Lock()
	p.idle = append(p.idle, idleContext{key: key, g: g, rc: rc})
	p.slots += slotsOf(g)
	p.idle = slices.DeleteFunc(p.idle, func(e idleContext) bool {
		stale := e.key.gen != gen
		if stale {
			p.slots -= slotsOf(e.g)
			drop = append(drop, e.rc)
		}
		return stale
	})
	for p.slots > poolSlots {
		e := p.idle[0]
		p.idle = slices.Delete(p.idle, 0, 1)
		p.slots -= slotsOf(e.g)
		drop = append(drop, e.rc)
	}
	p.mu.Unlock()
	for _, rc := range drop {
		rc.Close()
	}
}
