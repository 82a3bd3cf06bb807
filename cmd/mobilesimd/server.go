package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	mc "mobilecongest"
)

// serverConfig bounds one mobilesimd instance.
type serverConfig struct {
	cache *mc.ResultCache
	// maxSweeps bounds concurrently executing sweep requests; further POSTs
	// get 429 until a slot frees.
	maxSweeps int
	// maxWorkers bounds the total worker goroutines across all in-flight
	// sweeps. A request's resolved worker count is clamped to what is left
	// of the budget; when nothing is left, 429.
	maxWorkers int
	// maxCells bounds one request's expansion; bigger specs get 413.
	maxCells int
	// maxBody bounds the spec body size; bigger bodies get 413.
	maxBody int64
}

func (c *serverConfig) defaults() {
	if c.maxSweeps <= 0 {
		c.maxSweeps = 4
	}
	if c.maxWorkers <= 0 {
		c.maxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.maxCells <= 0 {
		c.maxCells = 1 << 20
	}
	if c.maxBody <= 0 {
		c.maxBody = 1 << 20
	}
}

// server is the sweep service: one process-wide result cache, an admission
// gate over sweeps and workers, and request counters behind /stats.
type server struct {
	cfg serverConfig

	mu             sync.Mutex
	inflightSweeps int
	inflightWorker int
	sweepsTotal    uint64
	sweepsRejected uint64
	recordsServed  uint64
	// latencies is a ring of recent whole-sweep latencies for the /stats
	// percentiles.
	latencies [1024]float64
	latCount  uint64
}

func newServer(cfg serverConfig) *server {
	cfg.defaults()
	if cfg.cache == nil {
		cfg.cache = mc.NewResultCache(0)
	}
	return &server{cfg: cfg}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// admit reserves one sweep slot and up to want workers, returning the
// granted worker count. ok=false means saturated: every sweep slot busy, or
// no worker budget left.
func (s *server) admit(want int) (granted int, ok bool) {
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	if want > s.cfg.maxWorkers {
		want = s.cfg.maxWorkers
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.cfg.maxWorkers - s.inflightWorker
	if s.inflightSweeps >= s.cfg.maxSweeps || free < 1 {
		s.sweepsRejected++
		return 0, false
	}
	if want > free {
		want = free
	}
	s.inflightSweeps++
	s.inflightWorker += want
	s.sweepsTotal++
	return want, true
}

// release returns an admitted sweep's slot and workers and records its
// latency and served-record count.
func (s *server) release(workers, served int, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflightSweeps--
	s.inflightWorker -= workers
	s.recordsServed += uint64(served)
	s.latencies[s.latCount%uint64(len(s.latencies))] = float64(elapsed.Microseconds()) / 1000
	s.latCount++
}

// handleSweep accepts a PlanSpec and streams the sweep's records back as
// NDJSON, one line per cell as it finishes. The request context cancels the
// plan, so a disconnected client stops consuming workers after its
// in-flight cells drain.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a plan spec", http.StatusMethodNotAllowed)
		return
	}
	spec, err := mc.ReadPlanSpec(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("spec body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if cells := spec.Cells(); cells > s.cfg.maxCells {
		http.Error(w, fmt.Sprintf("spec expands to %d cells, server cap is %d", cells, s.cfg.maxCells), http.StatusRequestEntityTooLarge)
		return
	}
	plan, err := spec.Plan()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	workers, ok := s.admit(spec.Workers)
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: all sweep slots and workers busy", http.StatusTooManyRequests)
		return
	}
	start := time.Now()
	served := 0
	defer func() { s.release(workers, served, time.Since(start)) }()

	plan.Workers = workers
	plan.Cache = s.cfg.cache

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Workers", fmt.Sprint(workers))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for rec, err := range plan.Stream(r.Context()) {
		if err != nil {
			// Before the first record this is a plan configuration error and
			// the status line is still ours to set; mid-stream it is the
			// client's own cancellation.
			if served == 0 && r.Context().Err() == nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		if err := enc.Encode(rec); err != nil {
			return // client gone; ctx cancellation stops the plan
		}
		served++
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// statsReply is the /stats document.
type statsReply struct {
	Cache          mc.CacheStats `json:"cache"`
	HitRate        float64       `json:"cache_hit_rate"`
	SweepsInflight int           `json:"sweeps_inflight"`
	SweepsTotal    uint64        `json:"sweeps_total"`
	SweepsRejected uint64        `json:"sweeps_rejected"`
	WorkersInUse   int           `json:"workers_in_use"`
	WorkersMax     int           `json:"workers_max"`
	RecordsServed  uint64        `json:"records_served"`
	Latency        latencyReply  `json:"sweep_latency_ms"`
}

type latencyReply struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cfg.cache.Stats()
	s.mu.Lock()
	reply := statsReply{
		Cache:          cs,
		SweepsInflight: s.inflightSweeps,
		SweepsTotal:    s.sweepsTotal,
		SweepsRejected: s.sweepsRejected,
		WorkersInUse:   s.inflightWorker,
		WorkersMax:     s.cfg.maxWorkers,
		RecordsServed:  s.recordsServed,
		Latency:        s.latencySnapshot(),
	}
	s.mu.Unlock()
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		reply.HitRate = float64(cs.Hits) / float64(lookups)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(reply)
}

// latencySnapshot computes percentiles over the retained ring. Callers hold
// s.mu.
func (s *server) latencySnapshot() latencyReply {
	n := s.latCount
	if n > uint64(len(s.latencies)) {
		n = uint64(len(s.latencies))
	}
	if n == 0 {
		return latencyReply{}
	}
	vals := append([]float64(nil), s.latencies[:n]...)
	sort.Float64s(vals)
	pick := func(p float64) float64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return latencyReply{Count: s.latCount, P50: pick(0.50), P90: pick(0.90), P99: pick(0.99)}
}
