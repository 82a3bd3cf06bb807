package mobilecongest

import (
	"encoding/json"

	"mobilecongest/internal/resultcache"
)

// The result cache: every sweep cell is deterministic by construction —
// CellSeed hashes the canonical cell label, and the cross-engine suite pins
// byte-identical Records — so a cell that has ever been computed never needs
// computing again. A ResultCache memoizes Records content-addressed by
// (canonical cell label, derived seed, engine, code version); install one on
// Plan.Cache and repeated or overlapping sweeps collapse into lookups.
// cmd/mobilesimd shares one across all clients, and mobilesim -cache reuses
// one across CLI invocations through the disk tier.

// CacheStats is a point-in-time snapshot of a ResultCache's counters.
type CacheStats = resultcache.Stats

// recordCodec serializes Records for the cache's disk tier and byte
// accounting. Records round-trip JSON exactly (the equivalence tests pin
// it), so a cached replay is byte-identical to the run that filled it.
var recordCodec = resultcache.Codec[Record]{
	Encode: func(r Record) ([]byte, error) { return json.Marshal(r) },
	Decode: func(b []byte) (Record, error) {
		var r Record
		err := json.Unmarshal(b, &r)
		return r, err
	},
}

// ResultCache memoizes sweep-cell Records, content-addressed by the cell's
// canonical label, derived seed, engine, and the running build's code
// version — so results can never leak across code changes (see
// CacheVersion). It holds a bounded in-memory LRU tier and, when opened
// with OpenResultCache, an append-only JSONL disk tier that survives
// restarts. Records that carry an Error are never cached: failures are
// recomputed, never replayed. Safe for concurrent use; one process-wide
// instance can back any number of concurrent Plans.
type ResultCache struct {
	c *resultcache.Cache[Record]
}

// NewResultCache returns a memory-only cache. maxBytes bounds the resident
// set by encoded record size (<= 0 means unbounded), evicting
// least-recently-used cells first.
func NewResultCache(maxBytes int64) *ResultCache {
	return &ResultCache{c: resultcache.New(maxBytes, "", recordCodec)}
}

// OpenResultCache returns a cache whose entries also persist to an
// append-only JSONL file under dir (created if missing): entries written by
// the same code version are loaded on open — newest wins, and a line torn
// by a crash is skipped, while the entries appended after it still load —
// and every insertion is appended durably.
func OpenResultCache(maxBytes int64, dir string) (*ResultCache, error) {
	c, err := resultcache.Open(maxBytes, "", recordCodec, dir)
	if err != nil {
		return nil, err
	}
	return &ResultCache{c: c}, nil
}

// CacheVersion returns the code-version string caches key under by default:
// the VCS revision for clean stamped builds, otherwise a content hash of
// the running executable, so any code change rotates the version.
func CacheVersion() string { return resultcache.BuildVersion() }

// Version returns the version this cache currently keys under.
func (rc *ResultCache) Version() string { return rc.c.Version() }

// SetVersion re-pins the version key — entries stored under other versions
// become unreachable (and un-loadable from disk). Intended for tests and
// coordinated fleets; the build-derived default is right for everything
// else.
func (rc *ResultCache) SetVersion(v string) { rc.c.SetVersion(v) }

// Stats snapshots hit/miss/eviction counters and tier sizes.
func (rc *ResultCache) Stats() CacheStats { return rc.c.Stats() }

// Close releases the disk tier, if any; the memory tier stays usable.
func (rc *ResultCache) Close() error { return rc.c.Close() }

// get returns the cached record for one cell address.
func (rc *ResultCache) get(label string, seed int64, engine string) (Record, bool) {
	return rc.c.Get(resultcache.Key{Label: label, Seed: seed, Engine: engine})
}

// put inserts a freshly computed record. Error records are never cached —
// a failure (cancellation, bandwidth violation, config drift) must not
// shadow a future successful run.
func (rc *ResultCache) put(label string, seed int64, engine string, rec Record) {
	if rec.Error != "" {
		return
	}
	// Insertion is best-effort: a full budget or failing disk only costs
	// future recomputation, never correctness. Disk failures are surfaced
	// through Stats().DiskError.
	_ = rc.c.Put(resultcache.Key{Label: label, Seed: seed, Engine: engine}, rec)
}
