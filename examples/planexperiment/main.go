// planexperiment demonstrates the experiment Plan API end to end: a
// protocols list (including a compiled protocol with its trusted
// preprocessing artifact resolved by name), swept node counts and
// eavesdropper strengths, streamed execution with progress as cells
// complete, and Summarize aggregation over repetitions — the paper's
// comparative methodology (compiler overhead vs. payload, across graph sizes
// and adversary strengths) expressed without writing a protocol.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	mc "mobilecongest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "planexperiment:", err)
		os.Exit(1)
	}
}

func run() error {
	// The comparative cell grid of Theorem 1.2's headline claim: the same
	// broadcast, plain vs. compiled (secure-broadcast), across clique sizes
	// and eavesdropper strengths. 3 reps per cell give the aggregates
	// spread. The same spec, as JSON, is what `mobilesim -sweep` builds
	// from its flags and what mobilesimd accepts.
	plan, err := mc.PlanSpec{
		Topologies:  []string{"clique"},
		Ns:          []int{8, 16},
		Protocols:   []string{"broadcast", "secure-broadcast"},
		Adversaries: []string{"eavesdrop"},
		Fs:          []int{1, 2},
		Reps:        3,
		BaseSeed:    42,
		Workers:     4,
	}.Plan()
	if err != nil {
		return err
	}

	// Stream: records arrive as cells finish; collect them for aggregation.
	var records []mc.Record
	for rec, err := range plan.Stream(context.Background()) {
		if err != nil {
			return err
		}
		if rec.Error != "" {
			return fmt.Errorf("cell %s: %s", rec.Name, rec.Error)
		}
		records = append(records, rec)
		fmt.Printf("done %-60s rounds=%-4d bytes=%d\n", rec.Name, rec.Rounds, rec.Bytes)
	}

	// Aggregate reps per cell and report the compiled/plain overhead — the
	// comparative shape the paper's tables are made of. Records arrive in
	// completion order; sort so the report is deterministic run to run.
	sort.Slice(records, func(i, j int) bool { return records[i].Name < records[j].Name })
	type cellKey struct {
		n, f int
	}
	rounds := map[string]map[cellKey]float64{}
	var keys []cellKey
	fmt.Printf("\n%-8s %4s %3s | %8s %10s %12s\n", "proto", "n", "f", "rounds", "stddev", "bytes(mean)")
	for _, s := range mc.Summarize(records) {
		fmt.Printf("%-8.8s %4d %3d | %8.1f %10.2f %12.0f\n",
			s.Protocol, s.N, s.F, s.Rounds.Mean, s.Rounds.Stddev, s.Bytes.Mean)
		if rounds[s.Protocol] == nil {
			rounds[s.Protocol] = map[cellKey]float64{}
		}
		if s.Protocol == "broadcast" {
			keys = append(keys, cellKey{s.N, s.F})
		}
		rounds[s.Protocol][cellKey{s.N, s.F}] = s.Rounds.Mean
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].n != keys[j].n {
			return keys[i].n < keys[j].n
		}
		return keys[i].f < keys[j].f
	})
	fmt.Println()
	for _, key := range keys {
		plain, compiled := rounds["broadcast"][key], rounds["secure-broadcast"][key]
		// Theorem 1.2: r' = 2r + t with t = 2fr, i.e. overhead 2 + 2f.
		fmt.Printf("n=%-3d f=%d  secure/plain round overhead %.1fx (theorem: %dx)\n",
			key.n, key.f, compiled/plain, 2+2*key.f)
	}
	return nil
}
