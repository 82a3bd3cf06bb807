package mobilecongest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	mc "mobilecongest"
)

// TestPlanSpecEquivalentToGrid pins the lowering of a spec to its cells:
// record names, seeds and order, as literal values. They were captured from
// the Plan's earlier axis-list lowering, so any drift in a label fragment, a
// seed or the iteration order (reps innermost) shows here. One spec names
// all ten dimensions; the other is the CI server-smoke spec, whose records
// the CLI and mobilesimd must agree on byte for byte.
func TestPlanSpecEquivalentToGrid(t *testing.T) {
	cases := []struct {
		name string
		spec mc.PlanSpec
		want string // "name seed" per record, in Run order
	}{
		{"all-dimensions", mc.PlanSpec{
			Topologies:  []string{"clique", "circulant"},
			Ns:          []int{8},
			Ks:          []int{3},
			Protocols:   []string{"floodmax", "bfs"},
			Ps:          []int{2},
			Adversaries: []string{"none", "flip"},
			Fs:          []int{2},
			Engines:     []string{"step", "shard"},
			Bandwidths:  []int{0, 256},
			Reps:        2,
			BaseSeed:    11,
			Workers:     1,
		}, allDimensionsCells},
		{"server-smoke", mc.PlanSpec{
			Topologies:  []string{"clique", "circulant"},
			Ns:          []int{8, 16},
			Adversaries: []string{"none", "flip"},
			Fs:          []int{2},
			Engines:     []string{"step", "shard"},
			Reps:        2,
			BaseSeed:    7,
			Workers:     1,
		}, serverSmokeCells},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := c.spec.Plan()
			if err != nil {
				t.Fatal(err)
			}
			recs, err := plan.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSpace(c.want), "\n")
			if len(recs) != len(want) {
				t.Fatalf("got %d records, want %d", len(recs), len(want))
			}
			for i, r := range recs {
				if r.Error != "" {
					t.Fatalf("cell %s failed: %s", r.Name, r.Error)
				}
				if got := fmt.Sprintf("%s %d", r.Name, r.Seed); got != want[i] {
					t.Fatalf("record %d = %q, want %q", i, got, want[i])
				}
			}
			if n := c.spec.Cells(); n != len(recs) {
				t.Fatalf("Cells() = %d, ran %d", n, len(recs))
			}
		})
	}
}

const allDimensionsCells = `
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=0,rep=0 8561047536393328265
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=0,rep=1 -1659142322010494308
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=256,rep=0 8561047536393328265
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=256,rep=1 -1659142322010494308
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=0,rep=0 8561047536393328265
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=0,rep=1 -1659142322010494308
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=256,rep=0 8561047536393328265
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=256,rep=1 -1659142322010494308
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=0,rep=0 3975639434722612388
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=0,rep=1 -6261350684522223439
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=256,rep=0 3975639434722612388
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=256,rep=1 -6261350684522223439
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=0,rep=0 3975639434722612388
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=0,rep=1 -6261350684522223439
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=256,rep=0 3975639434722612388
topo=clique,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=256,rep=1 -6261350684522223439
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=0,rep=0 -6922805013350598012
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=0,rep=1 133480976402335377
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=256,rep=0 -6922805013350598012
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=256,rep=1 133480976402335377
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=0,rep=0 -6922805013350598012
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=0,rep=1 133480976402335377
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=256,rep=0 -6922805013350598012
topo=clique,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=256,rep=1 133480976402335377
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=0,rep=0 -2457977953991045771
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=0,rep=1 4887808210109804896
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=256,rep=0 -2457977953991045771
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=256,rep=1 4887808210109804896
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=0,rep=0 -2457977953991045771
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=0,rep=1 4887808210109804896
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=256,rep=0 -2457977953991045771
topo=clique,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=256,rep=1 4887808210109804896
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=0,rep=0 8343121053570030173
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=0,rep=1 -1297105010524051896
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=256,rep=0 8343121053570030173
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=step,bw=256,rep=1 -1297105010524051896
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=0,rep=0 8343121053570030173
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=0,rep=1 -1297105010524051896
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=256,rep=0 8343121053570030173
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=none,f=2,engine=shard,bw=256,rep=1 -1297105010524051896
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=0,rep=0 3512624831563065160
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=0,rep=1 -5870406839480214691
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=256,rep=0 3512624831563065160
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=step,bw=256,rep=1 -5870406839480214691
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=0,rep=0 3512624831563065160
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=0,rep=1 -5870406839480214691
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=256,rep=0 3512624831563065160
topo=circulant,n=8,k=3,proto=floodmax,p=2,adv=flip,f=2,engine=shard,bw=256,rep=1 -5870406839480214691
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=0,rep=0 -2227911549014034072
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=0,rep=1 9161350756858414461
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=256,rep=0 -2227911549014034072
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=step,bw=256,rep=1 9161350756858414461
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=0,rep=0 -2227911549014034072
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=0,rep=1 9161350756858414461
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=256,rep=0 -2227911549014034072
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=none,f=2,engine=shard,bw=256,rep=1 9161350756858414461
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=0,rep=0 1004609710354518505
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=0,rep=1 -7798424157089387012
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=256,rep=0 1004609710354518505
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=step,bw=256,rep=1 -7798424157089387012
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=0,rep=0 1004609710354518505
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=0,rep=1 -7798424157089387012
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=256,rep=0 1004609710354518505
topo=circulant,n=8,k=3,proto=bfs,p=2,adv=flip,f=2,engine=shard,bw=256,rep=1 -7798424157089387012
`

const serverSmokeCells = `
topo=clique,n=8,k=0,adv=none,f=2,engine=step,rep=0 -6114491310485197492
topo=clique,n=8,k=0,adv=none,f=2,engine=step,rep=1 3824557970375266649
topo=clique,n=8,k=0,adv=none,f=2,engine=shard,rep=0 -6114491310485197492
topo=clique,n=8,k=0,adv=none,f=2,engine=shard,rep=1 3824557970375266649
topo=clique,n=8,k=0,adv=flip,f=2,engine=step,rep=0 -7016326356375785603
topo=clique,n=8,k=0,adv=flip,f=2,engine=step,rep=1 42355262963110760
topo=clique,n=8,k=0,adv=flip,f=2,engine=shard,rep=0 -7016326356375785603
topo=clique,n=8,k=0,adv=flip,f=2,engine=shard,rep=1 42355262963110760
topo=clique,n=16,k=0,adv=none,f=2,engine=step,rep=0 3045318345308736357
topo=clique,n=16,k=0,adv=none,f=2,engine=step,rep=1 -5443623386857998480
topo=clique,n=16,k=0,adv=none,f=2,engine=shard,rep=0 3045318345308736357
topo=clique,n=16,k=0,adv=none,f=2,engine=shard,rep=1 -5443623386857998480
topo=clique,n=16,k=0,adv=flip,f=2,engine=step,rep=0 -1633195326218180216
topo=clique,n=16,k=0,adv=flip,f=2,engine=step,rep=1 8602649591502181789
topo=clique,n=16,k=0,adv=flip,f=2,engine=shard,rep=0 -1633195326218180216
topo=clique,n=16,k=0,adv=flip,f=2,engine=shard,rep=1 8602649591502181789
topo=circulant,n=8,k=0,adv=none,f=2,engine=step,rep=0 -8914356962877417640
topo=circulant,n=8,k=0,adv=none,f=2,engine=step,rep=1 1909154795749583693
topo=circulant,n=8,k=0,adv=none,f=2,engine=shard,rep=0 -8914356962877417640
topo=circulant,n=8,k=0,adv=none,f=2,engine=shard,rep=1 1909154795749583693
topo=circulant,n=8,k=0,adv=flip,f=2,engine=step,rep=0 -2066012853164782231
topo=circulant,n=8,k=0,adv=flip,f=2,engine=step,rep=1 9035194989322350972
topo=circulant,n=8,k=0,adv=flip,f=2,engine=shard,rep=0 -2066012853164782231
topo=circulant,n=8,k=0,adv=flip,f=2,engine=shard,rep=1 9035194989322350972
topo=circulant,n=16,k=0,adv=none,f=2,engine=step,rep=0 4404849276769292033
topo=circulant,n=16,k=0,adv=none,f=2,engine=step,rep=1 -6695072892223081708
topo=circulant,n=16,k=0,adv=none,f=2,engine=shard,rep=0 4404849276769292033
topo=circulant,n=16,k=0,adv=none,f=2,engine=shard,rep=1 -6695072892223081708
topo=circulant,n=16,k=0,adv=flip,f=2,engine=step,rep=0 6584500653438976532
topo=circulant,n=16,k=0,adv=flip,f=2,engine=step,rep=1 -4226731826766103039
topo=circulant,n=16,k=0,adv=flip,f=2,engine=shard,rep=0 6584500653438976532
topo=circulant,n=16,k=0,adv=flip,f=2,engine=shard,rep=1 -4226731826766103039
`

// TestPlanSpecValidation pins Validate's error cases at the decoder: every
// rejected spec errors with a diagnostic, never panics, and never reaches
// topology building. (A duplicated dimension is unexpressible — each
// dimension is one spec field.)
func TestPlanSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"not-json", `hello`, "bad plan spec"},
		{"wrong-shape", `[1,2,3]`, "bad plan spec"},
		{"unknown-field", `{"topolojees":["clique"]}`, "unknown field"},
		{"mistyped-field", `{"ns":"16"}`, "bad plan spec"},
		{"trailing-data", `{"ns":[8]} {"ns":[9]}`, "trailing data"},
		{"unknown-topology", `{"topologies":["moebius"]}`, `unknown topology "moebius"`},
		{"unknown-protocol", `{"protocols":["gossip"]}`, `unknown protocol "gossip"`},
		{"unknown-adversary", `{"adversaries":["omniscient"]}`, `unknown adversary "omniscient"`},
		{"unknown-engine", `{"engines":["quantum"]}`, "unknown engine"},
		{"p-without-protocol", `{"ps":[4]}`, "ps requires protocols"},
		{"zero-n", `{"ns":[16,0]}`, "n must be >= 1"},
		{"negative-n", `{"ns":[-4]}`, "n must be >= 1"},
		{"negative-k", `{"ks":[-1]}`, "ks values must be >= 0"},
		{"negative-p", `{"protocols":["bfs"],"ps":[-2]}`, "ps values must be >= 0"},
		{"negative-f", `{"fs":[-1]}`, "fs values must be >= 0"},
		{"negative-bandwidth", `{"bandwidths":[-8]}`, "bandwidths values must be >= 0"},
		{"negative-reps", `{"reps":-1}`, "reps must be >= 0"},
		{"negative-maxrounds", `{"max_rounds":-1}`, "max_rounds must be >= 0"},
		{"negative-workers", `{"workers":-1}`, "workers must be >= 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mc.ParsePlanSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("spec %s accepted", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPlanSpecGoroutineEngineRemoved pins the removal of the goroutine
// engine at the wire format: a spec naming it fails validation with the
// registry's unknown-engine error, which lists the engines that remain.
func TestPlanSpecGoroutineEngineRemoved(t *testing.T) {
	err := mc.PlanSpec{Engines: []string{"goroutine"}}.Validate()
	if want := `unknown engine "goroutine" (have [shard step])`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate() = %v, want an error containing %q", err, want)
	}
}

// TestPlanSpecDefaults pins the defaulting contract: the empty spec is one
// default cell, and each omitted list matches the CLI flag default.
func TestPlanSpecDefaults(t *testing.T) {
	sp, err := mc.ParsePlanSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.Cells(); n != 1 {
		t.Fatalf("empty spec expands to %d cells", n)
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.Topology != "clique" || r.N != 16 || r.Adversary != "none" || r.F != 1 ||
		r.Engine != mc.EngineStep.Name() || r.Rep != 0 || r.Error != "" {
		t.Fatalf("default cell = %+v", r)
	}
}

// TestPlanSpecCells pins the expansion arithmetic against a protocol+p+
// bandwidth spec actually run.
func TestPlanSpecCells(t *testing.T) {
	sp := mc.PlanSpec{
		Ns:         []int{8, 12},
		Protocols:  []string{"floodmax", "broadcast"},
		Ps:         []int{2, 3, 4},
		Engines:    []string{"step", "shard"},
		Bandwidths: []int{0, 4096},
		Reps:       2,
	}
	want := 2 * 2 * 3 * 2 * 2 * 2
	if n := sp.Cells(); n != want {
		t.Fatalf("Cells() = %d, want %d", n, want)
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("ran %d cells, want %d", len(recs), want)
	}
}

// overflowSpecs are accepted specs whose cell count wraps int when the list
// lengths are multiplied: 8 × 2^61 and 2^17 × 2^17 × 2^30 are both 2^64.
func overflowSpecs() map[string]string {
	many := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 1<<17), ",") }
	return map[string]string{
		"reps":    `{"ns":[1,2,3,4,5,6,7,8],"reps":2305843009213693952}`,
		"n-k-rep": `{"ns":[` + many("1") + `],"ks":[` + many("0") + `],"reps":1073741824}`,
	}
}

// TestPlanSpecCellsSaturate pins that Cells saturates instead of wrapping,
// so a server's cell cap rejects these specs before Plan expands them.
func TestPlanSpecCellsSaturate(t *testing.T) {
	for name, body := range overflowSpecs() {
		sp, err := mc.ParsePlanSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := sp.Cells(); n <= 1<<20 {
			t.Fatalf("%s: Cells() = %d, want above the default server cap", name, n)
		}
	}
}

// serverCellCap is cmd/mobilesimd's default -max-cells: the largest spec
// the server lets reach Plan.
const serverCellCap = 1 << 20

// FuzzPlanSpecCodec fuzzes the wire decoder: any input either errors or
// yields a spec that (a) survives an encode→decode round-trip unchanged and
// (b) builds a Plan without panicking when it passes the server's cell cap.
// A spec past the cap (say reps 2^33) is left unbuilt, exactly as the
// server leaves it.
func FuzzPlanSpecCodec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"topologies":["clique","circulant"],"ns":[8,16],"ks":[0],"reps":3,"base_seed":-9}`))
	f.Add([]byte(`{"protocols":["bfs"],"ps":[2,4],"adversaries":["flip"],"fs":[1,2],"engines":["step"]}`))
	f.Add([]byte(`{"bandwidths":[0,64],"max_rounds":12,"workers":4}`))
	f.Add([]byte(`{"ns":[0]}`))
	f.Add([]byte(`{"ps":[1]}`))
	f.Add([]byte(`{"topologies":["nope"]}`))
	f.Add([]byte(`[{"ns":[8]}]`))
	f.Add([]byte(`{"ns":[8]}trailing`))
	f.Add([]byte(overflowSpecs()["reps"]))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := mc.ParsePlanSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		sp2, err := mc.ParsePlanSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		enc2, err := json.Marshal(sp2)
		if err != nil {
			t.Fatal(err)
		}
		// Compare through the encoding: empty and omitted lists are the same
		// spec on the wire.
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round-trip drift: %s vs %s", enc, enc2)
		}
		if sp.Cells() > serverCellCap {
			return
		}
		if _, err := sp.Plan(); err != nil {
			t.Fatalf("validated spec %s failed to build: %v", enc, err)
		}
	})
}
