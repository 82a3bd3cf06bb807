package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mc "mobilecongest"
)

// runEnv is where a run finds the server binary and keeps its files.
type runEnv struct {
	server string // mobilesimd binary
	work   string // directory for caches, results and span files
}

// daemon is one mobilesimd child process with a fresh disk-backed cache.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	dir     string
	exited  chan struct{} // closed once the process has been waited for
	stopped bool
}

// startDaemon spawns mobilesimd and returns once /healthz answers 200, with
// the time that took.
func startDaemon(env runEnv) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(env.work, "cache-")
	if err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{url: "http://" + addr, dir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(env.server, "-addr", addr, "-cache", dir)
	// The server must not outlive the benchmark, even if it crashes.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("starting mobilesimd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // how it exited is moot: stop reports a hang, and the checks any misbehaviour
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for time.Since(start) < 10*time.Second {
		if resp, err := hc.Get(d.url + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			os.RemoveAll(dir)
			return nil, 0, errors.New("mobilesimd exited before answering /healthz")
		case <-time.After(time.Millisecond):
		}
	}
	_ = d.stop()
	return nil, 0, errors.New("mobilesimd did not answer /healthz within 10s")
}

// stop interrupts the server, waits for it to exit, and removes its cache.
// Calling it again does nothing.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	defer os.RemoveAll(d.dir)
	_ = d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-d.exited:
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mobilesimd ignored the interrupt and was killed")
	}
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Puts   uint64 `json:"puts"`
	} `json:"cache"`
	SweepsRejected uint64 `json:"sweeps_rejected"`
	Latency        struct {
		P50 float64 `json:"p50"`
		P99 float64 `json:"p99"`
	} `json:"sweep_latency_ms"`
}

func (d *daemon) stats(client *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := client.Get(d.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// diskBytes is the size of the cache's JSONL disk tier.
func (d *daemon) diskBytes() (int64, error) {
	fi, err := os.Stat(filepath.Join(d.dir, "results.jsonl"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// exchange is one request's timeline on the report's clock and its raw
// response.
type exchange struct {
	due, lag, start, first, end int64
	status                      int
	body                        []byte
	err                         error
}

// post sends one sweep and reads the NDJSON stream, noting when the first
// record and the end of the stream arrived.
func post(client *http.Client, url string, body []byte, now func() int64, x *exchange) {
	x.start = now()
	resp, err := client.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		x.err, x.first, x.end = err, now(), now()
		return
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	x.first = now()
	if err != nil && err != io.EOF {
		x.err = err
	}
	rest, err := io.ReadAll(br)
	x.end = now()
	if err != nil && x.err == nil {
		x.err = err
	}
	x.body = append(first, rest...)
}

// openLoop sends reqs at a fixed rate whatever the server's pace: request i
// is due i/rate after the start, and queues until one of conns connections
// is free. The generator's own lateness is recorded as lag.
func openLoop(client *http.Client, url string, reqs []request, rate float64, conns int, now func() int64) []exchange {
	xs := make([]exchange, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				post(client, url, reqs[i].body, now, &xs[i])
			}
		}()
	}
	t0 := now()
	interval := float64(time.Second) / rate
	for i := range reqs {
		due := t0 + int64(float64(i)*interval)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		xs[i].due, xs[i].lag = due, now()-due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return xs
}

// closedLoop has conns callers each send their next request as soon as the
// last one completes, until reqs run out or, when limit is positive, limit
// has passed. It returns the exchanges made and the wall time taken.
func closedLoop(client *http.Client, url string, reqs []request, conns int, limit time.Duration, now func() int64) ([]exchange, int64) {
	xs := make([]exchange, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for limit <= 0 || now()-t0 < int64(limit) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				xs[i].due = now()
				post(client, url, reqs[i].body, now, &xs[i])
			}
		}()
	}
	wg.Wait()
	return xs[:min(int(next.Load()), len(reqs))], now() - t0
}

// validate checks that a response is a 200 carrying exactly want
// error-free records.
func validate(x exchange, want int) error {
	if x.err != nil {
		return x.err
	}
	if x.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", x.status, bytes.TrimSpace(x.body))
	}
	lines := bytes.Split(bytes.TrimSuffix(x.body, []byte("\n")), []byte("\n"))
	if len(lines) != want {
		return fmt.Errorf("%d records, want %d", len(lines), want)
	}
	for _, line := range lines {
		var rec struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("record %q: %w", line, err)
		}
		if rec.Error != "" {
			return fmt.Errorf("cell failed: %s", rec.Error)
		}
	}
	return nil
}

// stripElapsed removes every record's elapsed_ms, the one field that
// legitimately differs between two computations of the same cell.
func stripElapsed(body []byte) []byte {
	const key = `,"elapsed_ms":`
	var out []byte
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i]...)
		j := i + len(key)
		for j < len(body) && bytes.IndexByte([]byte("0123456789.-+eE"), body[j]) >= 0 {
			j++
		}
		body = body[j:]
	}
}

// warmPool requests every pool seed once, filling the server's cache, and
// returns each response without elapsed_ms: the bytes every later hit on
// that seed must reproduce.
func warmPool(client *http.Client, d *daemon, pool []request, want int, rep *report) map[int64][]byte {
	ref := map[int64][]byte{}
	for _, r := range pool {
		var x exchange
		post(client, d.url, r.body, rep.now, &x)
		rep.check(validate(x, want))
		ref[r.seed] = stripElapsed(x.body)
	}
	return ref
}

// checkResponses validates each response and, for hits, compares it with
// the pool's reference bytes.
func checkResponses(reqs []request, xs []exchange, want int, ref map[int64][]byte, rep *report) {
	for i, x := range xs {
		err := validate(x, want)
		if err == nil && reqs[i].hit && !bytes.Equal(stripElapsed(x.body), ref[reqs[i].seed]) {
			err = fmt.Errorf("cached response for base seed %d differs from its first computation", reqs[i].seed)
		}
		rep.check(err)
	}
}

// byKind splits the exchanges' latencies, from due time to the last record,
// into cache hits and misses.
func byKind(reqs []request, xs []exchange) (hit, miss []float64) {
	for i, x := range xs {
		ms := float64(x.end-x.due) / 1e6
		if reqs[i].hit {
			hit = append(hit, ms)
		} else {
			miss = append(miss, ms)
		}
	}
	return hit, miss
}

// recompute runs a request's plan in-process, with no cache, and compares
// its records with the served ones, elapsed_ms aside.
func recompute(r request, x exchange) error {
	sp, err := mc.ParsePlanSpec(r.body)
	if err != nil {
		return err
	}
	p, err := sp.Plan()
	if err != nil {
		return err
	}
	recs, err := p.Run(context.Background())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if !bytes.Equal(stripElapsed(buf.Bytes()), stripElapsed(x.body)) {
		return fmt.Errorf("served records for base seed %d differ from an in-process recomputation", r.seed)
	}
	return nil
}

// runServed measures served-mixed: POSTed sweeps against a real mobilesimd,
// in an open loop at each rate step and then in a closed loop for capacity.
// It then replays the main step's requests in-process, for the throughput
// and allocation of the served pipeline and, traced, for the planspec, plan
// and encode layers; traced, it also breaks the cells down by layer.
func runServed(w workload, ld load, in inputs, trace bool, env runEnv, rep *report) error {
	setups := 1
	if !trace {
		setups = ld.setups
	}
	var startTimes []float64
	var d *daemon
	for i := range setups {
		nd, took, err := startDaemon(env)
		if err != nil {
			return err
		}
		startTimes = append(startTimes, took.Seconds())
		if i < setups-1 {
			if err := nd.stop(); err != nil {
				return err
			}
			continue
		}
		d = nd
	}
	defer d.stop()

	client := newClient(ld.conns)
	defer client.CloseIdleConnections()
	cells := cellsOf(w.spec)
	ref := warmPool(client, d, in.pool, len(cells), rep)

	var stepX [][]exchange
	var before, after daemonStats
	// The host's speed is sampled from this process while the main step
	// runs: in recordings, samples taken just before and after the step
	// tracked the server's times worse than the raw times varied.
	srvSpd, err := newSpeedMeter(refKernelServerMS)
	if err != nil {
		return err
	}
	defer srvSpd.close()
	stopRSS := sampleRSS(d.cmd.Process.Pid)
	for i, st := range ld.steps {
		if i == ld.mainStep {
			if before, err = d.stats(client); err != nil {
				return err
			}
			stop := srvSpd.sampleEvery(kernelEvery)
			stepX = append(stepX, openLoop(client, d.url, in.steps[i], st.rate, ld.conns, rep.now))
			stop()
			if after, err = d.stats(client); err != nil {
				return err
			}
			continue
		}
		stepX = append(stepX, openLoop(client, d.url, in.steps[i], st.rate, ld.conns, rep.now))
	}
	capX, capWall := closedLoop(client, d.url, in.capacity, ld.conns, time.Duration(ld.capacitySeconds*float64(time.Second)), rep.now)
	rss := stopRSS()
	final, err := d.stats(client)
	if err != nil {
		return err
	}
	peak, err := memMB(d.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return err
	}
	disk, err := d.diskBytes()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	var reqs []request
	var xs []exchange
	maxOK := 0.0
	for i, st := range ld.steps {
		stepFailed := rep.failed
		checkResponses(in.steps[i], stepX[i], len(cells), ref, rep)
		if stepMetrics(st, in.steps[i], stepX[i], rep.failed-stepFailed, rep) {
			maxOK = st.rate
		}
		reqs, xs = append(reqs, in.steps[i]...), append(xs, stepX[i]...)
	}
	checkResponses(in.capacity, capX, len(cells), ref, rep)
	for _, i := range in.verify {
		rep.check(recompute(reqs[i], xs[i]))
	}

	mainX := stepX[ld.mainStep]
	replayReqs := in.steps[ld.mainStep][:min(ld.replayMax, len(mainX))]
	spd, err := newSpeedMeter(refKernelMS)
	if err != nil {
		return err
	}
	defer spd.close()
	rp, err := replay(in.pool, replayReqs, len(cells), env, spd, rep)
	if err != nil {
		return err
	}
	// An op is a request the cache cannot answer, whose 16 cells the server
	// simulates. Requests it answers from the cache are timed apart, as hits.
	hit, miss := byKind(in.steps[ld.mainStep], mainX)
	f := srvSpd.factor()
	srvSpd.report(rep, "host.kernel_ms.server")
	rep.set("setup_s", median(startTimes), "s", len(startTimes))
	rep.scaled("op_ms_p50", median(miss), f, "ms", len(miss))
	rep.scaled("op_ms_p90", percentile(miss, 0.9), f, "ms", len(miss))
	rep.set("op_ms_p99", percentile(miss, 0.99), "ms", len(miss))
	rep.set("hit_ms_p50", median(hit), "ms", len(hit))
	rep.set("hit_ms_p90", percentile(hit, 0.9), "ms", len(hit))
	rep.set("ttfr_ms_p50", median(msEach(mainX, func(x exchange) int64 { return x.first - x.due })), "ms", len(mainX))
	var replayMS float64
	for _, ms := range rp.totalMS {
		replayMS += ms
	}
	spd.report(rep, "host.kernel_ms")
	rep.scaled("msgs_per_s", float64(rp.messages)/(replayMS/1e3), 1/spd.factor(), "msg/s", len(replayReqs))
	rep.set("capacity_rps", float64(len(capX))/(float64(capWall)/1e9), "req/s", len(capX))
	rep.set("rss_mb_p50", median(rss), "MB", len(rss))
	rep.set("peak_rss_mb", peak, "MB", 1)
	rep.set("loadgen.wait_ms_p90", percentile(msEach(mainX, func(x exchange) int64 { return x.start - x.due }), 0.9), "ms", len(mainX))
	rep.set("loadgen.lag_ms_max", slices.Max(msEach(xs, func(x exchange) int64 { return x.lag })), "ms", len(xs))
	rep.set("max_ok_rate_rps", maxOK, "req/s", len(ld.steps))

	rep.set("alloc_mb_per_op", float64(rp.after.TotalAlloc-rp.before.TotalAlloc)/1e6/float64(len(replayReqs)), "MB", len(replayReqs))
	if !trace {
		return nil
	}
	for _, x := range xs {
		clientSpans(x, rep)
	}
	setRuntimeMetrics(&rp.before, &rp.after, float64(len(replayReqs)), rep)
	if err := setServedLayers(mainX[:len(replayReqs)], rp, before, after, final.SweepsRejected, disk, final.Cache.Puts, rep); err != nil {
		return err
	}
	return traceDirect(cells, in.seed, make([]checker, len(cells)), ld.traceOps, rep)
}

// stepMetrics sets one rate step's latencies and reports whether the step
// met the latency limit: p99 over all its requests within 50 ms, no failed
// request, and no growing backlog. The backlog counts as growing when
// requests due in the step's last second waited for a connection for more
// than 10 ms at the median.
func stepMetrics(st rateStep, reqs []request, xs []exchange, failed int, rep *report) bool {
	hit, miss := byKind(reqs, xs)
	rep.set(fmt.Sprintf("op_ms_p50.r%.0f", st.rate), median(miss), "ms", len(miss))
	rep.set(fmt.Sprintf("hit_ms_p50.r%.0f", st.rate), median(hit), "ms", len(hit))
	p99 := percentile(append(hit, miss...), 0.99)
	rep.set(fmt.Sprintf("request_ms_p99.r%.0f", st.rate), p99, "ms", len(xs))
	lastDue := xs[len(xs)-1].due
	var waits []float64
	for _, x := range xs {
		if lastDue-x.due < int64(time.Second) {
			waits = append(waits, float64(x.start-x.due)/1e6)
		}
	}
	return p99 <= 50 && failed == 0 && median(waits) <= 10
}

// msEach maps exchanges to milliseconds.
func msEach(xs []exchange, f func(exchange) int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(f(x)) / 1e6
	}
	return out
}

// clientSpans records a request as a trace: the wait for a connection, the
// time to the first record, and the rest of the stream.
func clientSpans(x exchange, rep *report) {
	trace := rep.newTrace()
	root := rep.span(trace, -1, "request", x.due, x.end)
	rep.span(trace, root, "wait", x.due, x.start)
	rep.span(trace, root, "ttfr", x.start, x.first)
	rep.span(trace, root, "stream", x.first, x.end)
}

// probeServed serves a run workload's cell through a fresh mobilesimd, one
// request at a time in the served mix once its pool seeds are cached, and
// replays the same requests in-process. The result line carries every
// declared metric for every workload, and this is where a run workload's
// served-path layer metrics come from.
func probeServed(in inputs, env runEnv, rep *report) error {
	d, _, err := startDaemon(env)
	if err != nil {
		return err
	}
	defer d.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	ref := warmPool(client, d, in.pool, 1, rep)
	before, err := d.stats(client)
	if err != nil {
		return err
	}
	xs, _ := closedLoop(client, d.url, in.probe, 1, 0, rep.now)
	after, err := d.stats(client)
	if err != nil {
		return err
	}
	disk, err := d.diskBytes()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	checkResponses(in.probe, xs, 1, ref, rep)
	rp, err := replay(in.pool, in.probe, 1, env, nil, rep)
	if err != nil {
		return err
	}
	return setServedLayers(xs, rp, before, after, after.SweepsRejected, disk, after.Cache.Puts, rep)
}

// replayed holds the in-process replay's per-request timings, in request
// order, and the heap statistics around it.
type replayed struct {
	parseUS, firstMS, totalMS []float64
	hit                       []bool
	cellMS                    []float64 // elapsed_ms of computed cells
	encodeNs                  int64
	records                   int
	messages                  int // reported by computed cells
	before, after             runtime.MemStats
}

// replay feeds requests through the served pipeline in-process, with no
// HTTP: ParsePlanSpec and PlanSpec.Plan, then Plan.Stream against a fresh
// disk-backed ResultCache, each record JSON-encoded as the server does. The
// pool is replayed first, untimed, so hits find their cells. A non-nil spd
// is sampled after every timed request.
func replay(pool, reqs []request, want int, env runEnv, spd *speedMeter, rep *report) (*replayed, error) {
	dir, err := os.MkdirTemp(env.work, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := mc.OpenResultCache(256<<20, dir) // mobilesimd's default budget
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	rp := &replayed{}
	one := func(r request, timed bool) error {
		buf.Reset()
		t0 := time.Now()
		sp, err := mc.ParsePlanSpec(r.body)
		if err != nil {
			return err
		}
		p, err := sp.Plan()
		if err != nil {
			return err
		}
		t1 := time.Now()
		p.Cache = cache
		var first time.Time
		n := 0
		var encode time.Duration
		var cellMS []float64
		messages := 0
		for rec, err := range p.Stream(context.Background()) {
			if n == 0 {
				first = time.Now()
			}
			if err != nil {
				return err
			}
			if rec.Error != "" {
				return fmt.Errorf("cell %s: %s", rec.Name, rec.Error)
			}
			te := time.Now()
			if err := enc.Encode(rec); err != nil {
				return err
			}
			encode += time.Since(te)
			if !r.hit {
				cellMS = append(cellMS, rec.ElapsedMS)
				messages += rec.Messages
			}
			n++
		}
		end := time.Now()
		if n != want {
			return fmt.Errorf("%d records, want %d", n, want)
		}
		if timed {
			rp.parseUS = append(rp.parseUS, float64(t1.Sub(t0))/1e3)
			rp.firstMS = append(rp.firstMS, msOf(first.Sub(t1)))
			rp.totalMS = append(rp.totalMS, msOf(end.Sub(t0)))
			rp.hit = append(rp.hit, r.hit)
			rp.cellMS = append(rp.cellMS, cellMS...)
			rp.encodeNs += int64(encode)
			rp.records += n
			rp.messages += messages
		}
		return nil
	}
	for _, r := range pool {
		rep.check(one(r, false))
	}
	runtime.ReadMemStats(&rp.before)
	failed := rep.failed
	for _, r := range reqs {
		rep.check(one(r, true))
		if spd != nil {
			spd.sample()
		}
	}
	runtime.ReadMemStats(&rp.after)
	if rep.failed > failed {
		return nil, errors.New("in-process replay failed")
	}
	return rp, nil
}

// setServedLayers sets the planspec, plan, resultcache and mobilesimd
// metrics from served exchanges, the in-process replay of the same
// requests, and the server's /stats before and after them.
func setServedLayers(xs []exchange, rp *replayed, before, after daemonStats, rejected uint64, disk int64, puts uint64, rep *report) error {
	if len(xs) != len(rp.totalMS) {
		return fmt.Errorf("%d served requests but %d replayed", len(xs), len(rp.totalMS))
	}
	var hitFirst, missFirst, hitMS, overhead []float64
	for i, x := range xs {
		if rp.hit[i] {
			hitFirst = append(hitFirst, rp.firstMS[i])
			hitMS = append(hitMS, float64(x.end-x.due)/1e6)
		} else {
			missFirst = append(missFirst, rp.firstMS[i])
		}
		overhead = append(overhead, float64(x.end-x.start)/1e6-rp.totalMS[i])
	}
	n := len(xs)
	rep.set("planspec.parse_us", median(rp.parseUS), "us", n)
	rep.set("plan.first_record_ms.hit", median(hitFirst), "ms", len(hitFirst))
	rep.set("plan.first_record_ms.miss", median(missFirst), "ms", len(missFirst))
	rep.set("plan.cell_ms_p50", median(rp.cellMS), "ms", len(rp.cellMS))
	rep.set("mobilesimd.hit_ms_p50", median(hitMS), "ms", len(hitMS))
	rep.set("mobilesimd.encode_us_per_record", float64(rp.encodeNs)/1e3/float64(rp.records), "us", rp.records)
	rep.set("mobilesimd.server_sweep_ms_p50", after.Latency.P50, "ms", n)
	rep.set("mobilesimd.server_sweep_ms_p99", after.Latency.P99, "ms", n)
	rep.set("mobilesimd.overhead_ms_p50", median(overhead), "ms", n)
	rep.set("mobilesimd.rejected", float64(rejected), "count", 1)
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	rep.set("resultcache.hit_ratio", float64(hits)/float64(hits+misses), "ratio", int(hits+misses))
	rep.set("resultcache.disk_bytes_per_put", float64(disk)/float64(puts), "B", int(puts))
	return nil
}
