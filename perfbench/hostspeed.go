package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was defined on is two vCPUs of a shared machine
// whose speed drifts: a fixed float32 loop ran anywhere between 0.55x and
// 1x its best rate within a few minutes, with no steal time reported, and
// step times of the same code drifted 2x between consecutive runs. No
// statistic over a run removes drift that slow, so the benchmark measures
// the host's speed while the sessions run and reports every end-to-end
// time at a fixed reference speed.
//
// A goroutine locked to its own thread repeats a small fixed computation
// every refPeriod and records the thread CPU time it took: time the vCPU
// spent executing it, so neither waiting for a core nor steal time enters
// the reading (steal time where the kernel accounts it, as a paravirtual
// guest's does), only how fast the core ran. The computation is this
// package's own code, so no change to the program moves it. A session's
// scale is refNominalUs over the median reading during the session; its
// wall-clock times multiplied by its scale are what the session would
// have taken on a host where the reading is refNominalUs. The raw
// wall-clock figures are printed beside the scaled ones.

// refNominalUs is the reading the scaled times assume: about its median
// on the host the benchmark was defined on, so scaled and wall-clock
// figures read alike there.
const refNominalUs = 100.0

// refPeriod is how often the reference computation runs; each reading
// takes about 0.1 ms of one core, 0.5% of it.
const refPeriod = 20 * time.Millisecond

// refWindow is the least time a scale is taken over; shorter sessions use
// the readings of the refWindow before their end.
const refWindow = time.Second

// refSide is the side of the reference GEMM's square matrices: small
// enough to stay in L1, so a reading is the core's speed and not that of
// the memory the program shares with it.
const refSide = 24

type refSample struct {
	at  time.Time
	cpu time.Duration
}

// hostSpeed is the running speed probe.
type hostSpeed struct {
	mu      sync.Mutex
	samples []refSample
	stop    chan struct{}
	done    chan struct{}
}

// startHostSpeed starts the probe and returns once it has a first reading.
func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	first := make(chan struct{})
	go h.loop(first)
	<-first
	return h
}

func (h *hostSpeed) loop(first chan struct{}) {
	defer close(h.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = refSide
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.125
		b[i] = float32(i%5) * 0.25
	}
	tick := time.NewTicker(refPeriod)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		for rep := 0; rep < 8; rep++ {
			clear(c)
			for i := 0; i < n; i++ {
				ci := c[i*n : (i+1)*n]
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					bk := b[k*n : (k+1)*n]
					for j := range ci {
						ci[j] += aik * bk[j]
					}
				}
			}
		}
		d := threadCPU() - t0
		h.mu.Lock()
		h.samples = append(h.samples, refSample{at: time.Now(), cpu: d})
		h.mu.Unlock()
		if first != nil {
			close(first)
			first = nil
		}
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops the probe and waits for its goroutine to end.
func (h *hostSpeed) close() {
	close(h.stop)
	<-h.done
}

// scale returns refNominalUs over the median reading taken between t0 and
// t1, or in the refWindow before t1 when that is longer, and that median.
func (h *hostSpeed) scale(t0, t1 time.Time) (scale, refUs float64) {
	if t1.Sub(t0) < refWindow {
		t0 = t1.Add(-refWindow)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var xs []float64
	for _, s := range h.samples {
		if !s.at.Before(t0) && !s.at.After(t1) {
			xs = append(xs, float64(s.cpu)/1e3)
		}
	}
	if len(xs) == 0 { // the probe was starved for the whole window
		xs = append(xs, float64(h.samples[len(h.samples)-1].cpu)/1e3)
	}
	refUs = median(xs)
	return refNominalUs / refUs, refUs
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
