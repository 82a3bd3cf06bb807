package mobilecongest

import "hash/fnv"

// Record is the JSON-serializable outcome of one sweep cell: the cell's
// coordinates in the grid plus the run's statistics. Failed cells carry the
// error instead of aborting the whole sweep. K is the requested topology
// parameter as passed to the registry — 0 means the family's default (e.g.
// chord distance 2 for circulants), which the builder resolves internally;
// P is likewise the requested protocol parameter (0 = family default).
// Protocol is the protocol registry name of the cell's workload, empty for
// the default workload.
type Record struct {
	Name                string  `json:"name"`
	Topology            string  `json:"topology"`
	N                   int     `json:"n"`
	K                   int     `json:"k"`
	Protocol            string  `json:"protocol,omitempty"`
	P                   int     `json:"p,omitempty"`
	Adversary           string  `json:"adversary"`
	F                   int     `json:"f"`
	Engine              string  `json:"engine"`
	Bandwidth           int     `json:"bandwidth,omitempty"`
	Rep                 int     `json:"rep"`
	Seed                int64   `json:"seed"`
	Rounds              int     `json:"rounds"`
	Messages            int     `json:"messages"`
	Bytes               int     `json:"bytes"`
	MaxMsgBytes         int     `json:"max_msg_bytes"`
	MaxEdgeCongestion   int     `json:"max_edge_congestion"`
	CorruptedEdgeRounds int     `json:"corrupted_edge_rounds"`
	ElapsedMS           float64 `json:"elapsed_ms"`
	Error               string  `json:"error,omitempty"`
}

// CellSeed derives the deterministic seed for a plan cell: a hash of the
// cell's seed-relevant label mixed with the base seed and repetition index.
// It depends only on the cell's coordinates, never on plan order or
// worker scheduling, so reshaping a sweep does not reshuffle the randomness
// of surviving cells; axes a plan does not use contribute nothing to the
// label, so extending the axis vocabulary (e.g. the protocol axis) leaves
// every pre-existing cell's seed intact.
func CellSeed(base int64, label string, rep int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(uint64(base) ^ h.Sum64() ^ (uint64(rep) * 0x9e3779b97f4a7c15))
}
