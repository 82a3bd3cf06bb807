package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// The reference host is a shared VM. Its speed for the simulator's
// memory-bound code drifts by tens of percent within a minute, as other
// tenants load the caches and memory it shares with them, and every
// quantile of a run moves with it. A fixed kernel of random
// read-modify-writes over a buffer larger than a core's own caches slows
// with the simulator, so the ratio of the two stays steadier than either.
// A run samples the kernel while it measures: after each op it runs
// in-process, and beside the server while the server is timed. It scales
// the times it measured to a host on which the kernel takes the meter's
// reference time, and keeps the measured times in the results file too.

const (
	kernelLines = 1 << 16 // 4 MiB of 64-byte lines, numbered in 16 bits
	// The reference times are round figures near the kernel's median on the
	// reference host (README.md), so that scaled times read close to
	// measured ones there. Beside a loaded server the kernel runs slower,
	// by about as much at 350 req/s as at 150 req/s.
	refKernelMS       = 0.30 // sampled between in-process ops
	refKernelServerMS = 0.40 // sampled beside the server
	// kernelEvery spaces the samples taken beside the server. A sample takes
	// about 1 ms of one CPU.
	kernelEvery = 100 * time.Millisecond
)

// speedMeter times the kernel. The buffer and its visiting order are fixed,
// so the kernel does the same work in every run of every build, and it
// allocates nothing, so the simulator's heap and GC cannot change its time.
type speedMeter struct {
	ref     float64 // reference kernel time in ms
	mem     []byte  // mapped outside the Go heap: buf, then order
	buf     []byte
	order   []byte    // line numbers, two bytes each, little-endian
	samples []float64 // kernel times in ms
}

// newSpeedMeter maps the kernel's memory outside the Go heap. On the heap,
// its 4 MiB would raise the heap size at which the collector next runs, and
// so change the op being measured: it halved the GC cycles of a
// byz-clique run.
func newSpeedMeter(ref float64) (*speedMeter, error) {
	size := kernelLines * (64 + 2)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the speed kernel's buffer: %w", err)
	}
	m := &speedMeter{ref: ref, mem: mem, buf: mem[:kernelLines*64], order: mem[kernelLines*64:]}
	for i, v := range rand.New(rand.NewSource(1)).Perm(kernelLines) {
		m.order[2*i], m.order[2*i+1] = byte(v), byte(v>>8)
	}
	return m, nil
}

// close unmaps the kernel's memory. The meter must not be sampled again.
func (m *speedMeter) close() {
	_ = syscall.Munmap(m.mem) // fails only for a mapping that is not one
}

// sample times the kernel: the mean of two passes over the buffer. A first,
// untimed pass brings the buffer back from wherever the op left it, so the
// sample measures the host rather than the op's cache footprint.
func (m *speedMeter) sample() {
	m.pass()
	start := time.Now()
	m.pass()
	m.pass()
	m.samples = append(m.samples, msOf(time.Since(start))/2)
}

func (m *speedMeter) pass() {
	for j := 0; j < len(m.order); j += 2 {
		i := int(m.order[j]) | int(m.order[j+1])<<8
		m.buf[i*64]++
	}
}

// factor scales a time measured alongside the samples to the reference
// host: the reference time over the kernel's median time.
func (m *speedMeter) factor() float64 { return m.ref / median(m.samples) }

// sampleEvery samples the kernel on a goroutine of its own, at once and then
// once per interval, until the returned stop is called. It times the host
// while the work being measured runs in another process.
func (m *speedMeter) sampleEvery(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// report records the kernel's median time under name: the host's speed
// while the samples were taken.
func (m *speedMeter) report(rep *report, name string) {
	rep.set(name, median(m.samples), "ms", len(m.samples))
}
