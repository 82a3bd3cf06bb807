package mobilecongest

import (
	"math"
	"strings"
)

// Aggregate is one metric's distribution over a cell's repetitions.
type Aggregate struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summary aggregates the repetitions of one plan cell: records sharing every
// cell coordinate except the repetition index (and its derived seed) are
// grouped, and each simulation metric is reduced to mean/stddev/min/max.
// Stddev is the population standard deviation over the successful reps.
type Summary struct {
	// Name is the cell label: the record name with its ",rep=N" suffix
	// stripped.
	Name      string `json:"name"`
	Topology  string `json:"topology"`
	N         int    `json:"n"`
	K         int    `json:"k"`
	Protocol  string `json:"protocol,omitempty"`
	P         int    `json:"p,omitempty"`
	Adversary string `json:"adversary"`
	F         int    `json:"f"`
	Engine    string `json:"engine"`
	Bandwidth int    `json:"bandwidth,omitempty"`
	// Reps is the number of successful repetitions aggregated; Errors
	// counts failed ones (excluded from the aggregates).
	Reps   int `json:"reps"`
	Errors int `json:"errors,omitempty"`

	Rounds              Aggregate `json:"rounds"`
	Messages            Aggregate `json:"messages"`
	Bytes               Aggregate `json:"bytes"`
	MaxMsgBytes         Aggregate `json:"max_msg_bytes"`
	MaxEdgeCongestion   Aggregate `json:"max_edge_congestion"`
	CorruptedEdgeRounds Aggregate `json:"corrupted_edge_rounds"`
	ElapsedMS           Aggregate `json:"elapsed_ms"`
}

// cellKey strips the repetition suffix off a record name, leaving the
// cell's label, which reps of one cell share.
func cellKey(name string) string {
	if i := strings.LastIndex(name, ",rep="); i >= 0 {
		return name[:i]
	}
	return name
}

// summaryAcc accumulates one cell group before reduction.
type summaryAcc struct {
	s       *Summary
	metrics [7][]float64
}

// Summarize groups records by cell coordinates (everything but the
// repetition index) and reduces each group's metrics over its reps, in
// first-seen record order. It is the aggregation half of a Plan with Reps
// above 1: run the plan, then Summarize the records.
func Summarize(recs []Record) []Summary {
	groups := map[string]*summaryAcc{}
	var order []string
	for _, r := range recs {
		key := cellKey(r.Name)
		acc := groups[key]
		if acc == nil {
			acc = &summaryAcc{s: &Summary{
				Name:     key,
				Topology: r.Topology, N: r.N, K: r.K,
				Protocol: r.Protocol, P: r.P,
				Adversary: r.Adversary, F: r.F,
				Engine: r.Engine, Bandwidth: r.Bandwidth,
			}}
			groups[key] = acc
			order = append(order, key)
		}
		if r.Error != "" {
			acc.s.Errors++
			continue
		}
		acc.s.Reps++
		for i, v := range [7]float64{
			float64(r.Rounds), float64(r.Messages), float64(r.Bytes),
			float64(r.MaxMsgBytes), float64(r.MaxEdgeCongestion),
			float64(r.CorruptedEdgeRounds), r.ElapsedMS,
		} {
			acc.metrics[i] = append(acc.metrics[i], v)
		}
	}
	out := make([]Summary, 0, len(order))
	for _, key := range order {
		acc := groups[key]
		dst := [7]*Aggregate{
			&acc.s.Rounds, &acc.s.Messages, &acc.s.Bytes,
			&acc.s.MaxMsgBytes, &acc.s.MaxEdgeCongestion,
			&acc.s.CorruptedEdgeRounds, &acc.s.ElapsedMS,
		}
		for i, vals := range acc.metrics {
			*dst[i] = aggregate(vals)
		}
		out = append(out, *acc.s)
	}
	return out
}

func aggregate(vals []float64) Aggregate {
	if len(vals) == 0 {
		return Aggregate{}
	}
	a := Aggregate{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		a.Mean += v
		a.Min = math.Min(a.Min, v)
		a.Max = math.Max(a.Max, v)
	}
	a.Mean /= float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - a.Mean
		ss += d * d
	}
	a.Stddev = math.Sqrt(ss / float64(len(vals)))
	return a
}
