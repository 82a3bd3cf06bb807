package main

import (
	"os"
	"runtime"
	"time"
)

// runDirect measures a run workload: its single cell run by registry name,
// the way a library user calls Scenario.Run. Untraced, it times cold set-ups
// and then a closed loop of one caller repeating Run on one Scenario for the
// timed phase. Traced, it repeats the timed phase for the runtime metrics,
// then breaks the run down by layer and serves the cell through a probe
// server for the served-path layers.
func runDirect(w workload, ld load, in inputs, trace bool, env runEnv, rep *report) error {
	c := cellsOf(w.spec)[0]
	check, err := w.check(c, in.seed)
	if err != nil {
		return err
	}
	var setups []float64
	if !trace {
		for range ld.setups {
			start := time.Now()
			res, err := c.byName(in.seed).Run()
			setups = append(setups, time.Since(start).Seconds())
			rep.check(verify(res, err, check))
			// Each set-up starts from a collected heap, so that no set-up pays
			// for another's garbage and the discarded set-ups never pile up
			// into the process's peak RSS.
			runtime.GC()
		}
	}

	spd, err := newSpeedMeter(refKernelMS)
	if err != nil {
		return err
	}
	defer spd.close()
	s := c.byName(in.seed)
	for range ld.warmups {
		res, err := s.Run()
		rep.check(verify(res, err, check))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var lat []float64
	var busy time.Duration
	msgs := 0
	stopRSS := sampleRSS(os.Getpid())
	phase := time.Now()
	for len(lat) == 0 || time.Since(phase).Seconds() < ld.seconds {
		start := time.Now()
		res, err := s.Run()
		d := time.Since(start)
		lat = append(lat, msOf(d))
		busy += d
		if err == nil {
			msgs += res.Stats.Messages
		}
		rep.check(verify(res, err, check))
		spd.sample()
	}
	runtime.ReadMemStats(&after)
	rss := stopRSS()
	ops := float64(len(lat))

	if !trace {
		peak, err := memMB(os.Getpid(), "VmHWM")
		if err != nil {
			return err
		}
		f := spd.factor()
		spd.report(rep, "host.kernel_ms")
		rep.scaled("setup_s", median(setups), f, "s", len(setups))
		rep.scaled("op_ms_p50", median(lat), f, "ms", len(lat))
		rep.scaled("op_ms_p90", percentile(lat, 0.9), f, "ms", len(lat))
		rep.scaled("msgs_per_s", float64(msgs)/busy.Seconds(), 1/f, "msg/s", len(lat))
		rep.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/ops, "MB", len(lat))
		rep.set("rss_mb_p50", median(rss), "MB", len(rss))
		rep.set("peak_rss_mb", peak, "MB", 1)
		return nil
	}
	setRuntimeMetrics(&before, &after, ops, rep)
	if err := traceDirect([]cell{c}, in.seed, []checker{check}, ld.traceOps, rep); err != nil {
		return err
	}
	return probeServed(in, env, rep)
}

// setRuntimeMetrics sets the Go heap and GC metrics from MemStats taken
// around ops operations.
func setRuntimeMetrics(before, after *runtime.MemStats, ops float64, rep *report) {
	n := int(ops)
	rep.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "count", n)
	rep.set("runtime.gc_cycles_per_op", float64(after.NumGC-before.NumGC)/ops, "count", n)
	rep.set("runtime.gc_pause_ms_per_op", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/ops, "ms", n)
}
