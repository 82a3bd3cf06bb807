package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mc "mobilecongest"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, url, spec string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func decodeRecords(t *testing.T, ndjson string) []mc.Record {
	t.Helper()
	var recs []mc.Record
	sc := bufio.NewScanner(strings.NewReader(ndjson))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r mc.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs
}

const smallSpec = `{"topologies":["clique"],"ns":[8,12],"adversaries":["none","flip"],"fs":[2],"reps":2,"base_seed":7,"workers":1}`

// TestSweepStreamsPlanRecords pins the endpoint against the library: the
// streamed NDJSON is exactly the spec's Plan.Run record set, in grid order
// under workers:1 (timing aside).
func TestSweepStreamsPlanRecords(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	code, body := postSweep(t, ts.URL, smallSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	got := decodeRecords(t, body)

	spec, err := mc.ParsePlanSpec([]byte(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.ElapsedMS, w.ElapsedMS = 0, 0
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("record %d differs:\nserver: %s\nlocal:  %s", i, gj, wj)
		}
	}
}

// TestRepeatSweepServedFromCache pins the memoization contract end to end:
// the second identical POST replays the cached records byte-for-byte —
// including the first run's timings — and /stats reports the hits.
func TestRepeatSweepServedFromCache(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	code, first := postSweep(t, ts.URL, smallSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	code, second := postSweep(t, ts.URL, smallSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, second)
	}
	if first != second {
		t.Fatalf("cached replay not byte-identical:\nfirst:  %s\nsecond: %s", first, second)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	cells := uint64(len(decodeRecords(t, first)))
	if stats.Cache.Hits != cells {
		t.Fatalf("hits = %d, want %d (stats %+v)", stats.Cache.Hits, cells, stats)
	}
	if stats.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", stats.HitRate)
	}
	if stats.RecordsServed != 2*cells || stats.SweepsTotal != 2 || stats.SweepsInflight != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Latency.Count != 2 {
		t.Fatalf("latency ring missed sweeps: %+v", stats.Latency)
	}
}

// TestSweepRejections covers the refusal paths: bad method, malformed and
// misnamed specs, the body-size cap and the cell cap.
func TestSweepRejections(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxCells: 16, maxBody: 1 << 10})
	if resp, err := http.Get(ts.URL + "/sweep"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /sweep = %d", resp.StatusCode)
		}
	}
	for name, c := range map[string]struct {
		spec string
		code int
	}{
		"malformed":    {`{"ns":`, http.StatusBadRequest},
		"unknown-name": {`{"topologies":["moebius"]}`, http.StatusBadRequest},
		// The goroutine engine was removed; its name is unknown now.
		"removed-engine": {`{"engines":["goroutine"]}`, http.StatusBadRequest},
		"p-no-proto":     {`{"ps":[3]}`, http.StatusBadRequest},
		"too-many":       {`{"ns":[4],"reps":17}`, http.StatusRequestEntityTooLarge},
		"body-too-large": {`{"ns":[4]` + strings.Repeat(" ", 1<<10) + `}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			code, body := postSweep(t, ts.URL, c.spec)
			if code != c.code {
				t.Fatalf("status %d (want %d): %s", code, c.code, body)
			}
		})
	}
}

// TestSweepCellOverflowRejected pins the cell cap against specs whose cell
// count wraps int (8 × 2^61 and 2^17 × 2^17 × 2^30 are both 2^64): the
// server must answer 413, never build their axes.
func TestSweepCellOverflowRejected(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	many := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 1<<17), ",") }
	for name, spec := range map[string]string{
		"reps":    `{"ns":[1,2,3,4,5,6,7,8],"reps":2305843009213693952}`,
		"n-k-rep": `{"ns":[` + many("1") + `],"ks":[` + many("0") + `],"reps":1073741824}`,
	} {
		t.Run(name, func(t *testing.T) {
			if code, body := postSweep(t, ts.URL, spec); code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d (want 413): %s", code, body)
			}
		})
	}
}

// TestMissSweepStreamsIncrementally pins incremental delivery: a miss
// sweep's first record reaches the client while a later cell is still
// computing. The p=2 cell's protocol build blocks until the client has read
// the first record, so a server that held records back would time out.
func TestMissSweepStreamsIncrementally(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	mc.RegisterProtocol("test-block-p2", func(g *mc.Graph, p mc.ProtoParams) (mc.Protocol, any, error) {
		if p.Rounds == 2 {
			<-release
		}
		return mc.BuildProtocol("floodmax", g, p)
	})
	_, ts := testServer(t, serverConfig{})
	t.Cleanup(unblock) // runs before the server closes

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep",
		strings.NewReader(`{"protocols":["test-block-p2"],"ps":[1,2],"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no response while the p=2 cell was blocked: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first record did not arrive while the p=2 cell was blocked: %v", err)
	}
	unblock()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeRecords(t, string(first)+string(rest))
	if len(recs) != 2 || recs[0].Error != "" || recs[1].Error != "" || !strings.Contains(recs[0].Name, ",p=1,") {
		t.Fatalf("records = %+v, want two clean cells, p=1 first", recs)
	}
}

// TestAdmissionControl pins the 429 contract: a saturated server refuses
// promptly with Retry-After, and frees capacity once sweeps release.
func TestAdmissionControl(t *testing.T) {
	s, ts := testServer(t, serverConfig{maxSweeps: 1, maxWorkers: 2})

	// Occupy the only sweep slot.
	granted, ok := s.admit(8)
	if !ok {
		t.Fatal("admit on idle server refused")
	}
	if granted != 2 {
		t.Fatalf("granted %d workers, budget is 2", granted)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	s.release(granted, 0, time.Millisecond)
	if code, body := postSweep(t, ts.URL, smallSpec); code != http.StatusOK {
		t.Fatalf("POST after release = %d: %s", code, body)
	}

	// Worker budget accounting: refused sweeps must not leak workers.
	s.mu.Lock()
	inflight, workers := s.inflightSweeps, s.inflightWorker
	rejected := s.sweepsRejected
	s.mu.Unlock()
	if inflight != 0 || workers != 0 || rejected != 1 {
		t.Fatalf("leaked admission state: sweeps=%d workers=%d rejected=%d", inflight, workers, rejected)
	}
}

// TestWorkerBudgetClamping: a sweep asking for more workers than the free
// budget is clamped, not refused, and the grant is visible to the client.
func TestWorkerBudgetClamping(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxWorkers: 3})
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"ns":[8],"workers":64}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Sweep-Workers"); got != "3" {
		t.Fatalf("X-Sweep-Workers = %q, want 3", got)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestClientDisconnectReleases pins cancellation: a client that walks away
// mid-stream frees its sweep slot and workers.
func TestClientDisconnectReleases(t *testing.T) {
	s, ts := testServer(t, serverConfig{maxSweeps: 2})
	ctx, cancel := context.WithCancel(context.Background())
	// A sweep big enough to still be streaming when we bail: 64 cells of
	// circulant256 floodmax.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep",
		strings.NewReader(`{"topologies":["circulant"],"ns":[256],"reps":64,"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one record, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		inflight, workers := s.inflightSweeps, s.inflightWorker
		s.mu.Unlock()
		if inflight == 0 && workers == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never released after disconnect: sweeps=%d workers=%d", inflight, workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentClientsSharedCache fans 8 clients with overlapping sweeps
// against one server and one shared cache — the race-detector leg of the
// cache correctness satellite. Every response must decode to the right cell
// set regardless of which client's run populated which cache entry.
func TestConcurrentClientsSharedCache(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxSweeps: 8, maxWorkers: 8})
	specs := [8]string{}
	for i := range specs {
		// Overlapping grids: all clients share the clique8/clique12 cells,
		// half also sweep flip, half sweep n=16.
		extra := `"ns":[8,12]`
		if i%2 == 1 {
			extra = `"ns":[8,12,16]`
		}
		adv := `"adversaries":["none"]`
		if i%4 >= 2 {
			adv = `"adversaries":["none","flip"]`
		}
		// One worker per client: 8 clients then fit maxWorkers on any
		// GOMAXPROCS, where the default (GOMAXPROCS workers each) is
		// rejected with 429 on multi-core hosts.
		specs[i] = fmt.Sprintf(`{%s,%s,"fs":[2],"reps":2,"base_seed":7,"workers":1}`, extra, adv)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for _, spec := range specs {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(spec))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			sp, _ := mc.ParsePlanSpec([]byte(spec))
			var lines int
			for _, l := range strings.Split(strings.TrimSpace(string(body)), "\n") {
				var r mc.Record
				if err := json.Unmarshal([]byte(l), &r); err != nil {
					errs <- fmt.Errorf("bad line %q: %v", l, err)
					return
				}
				if r.Error != "" {
					errs <- fmt.Errorf("cell %s failed: %s", r.Name, r.Error)
					return
				}
				lines++
			}
			if lines != sp.Cells() {
				errs <- fmt.Errorf("got %d records for %d cells", lines, sp.Cells())
			}
		}(spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPServerTimeouts: the listening server bounds header reads and idle
// keep-alive connections, leaves streamed responses unbounded, and serves
// the sweep handler it was built with.
func TestHTTPServerTimeouts(t *testing.T) {
	h := newServer(serverConfig{cache: mc.NewResultCache(0), maxSweeps: 1}).handler()
	hs := newHTTPServer(":0", h)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout > time.Minute {
		t.Errorf("ReadHeaderTimeout = %v, want a positive bound of at most a minute", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout < time.Minute {
		t.Errorf("IdleTimeout = %v, want at least a minute so steady keep-alive clients keep their connections", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; want both unset so long sweeps and bodies are not cut off",
			hs.WriteTimeout, hs.ReadTimeout)
	}
	if hs.Addr != ":0" || hs.Handler == nil {
		t.Errorf("server built with Addr %q, Handler %v", hs.Addr, hs.Handler)
	}
}
