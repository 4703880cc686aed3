package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is percentile for a reported tail: it refuses a sample
// too small for the tail to have at least ten samples beyond it.
func tailPercentile(xs []float64, p float64, minSamples int) (float64, error) {
	if len(xs) < minSamples {
		return 0, fmt.Errorf("p%g from %d samples: need at least %d", p, len(xs), minSamples)
	}
	return percentile(xs, p), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one operation of a load loop, as offsets from the loop's
// start. In an open loop due is when the operation was scheduled, so
// latency includes any wait a stall imposed on it and late is how far
// behind the generator ran; in a closed loop due equals sent.
type sample struct {
	due, sent, done time.Duration
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) late() time.Duration    { return s.sent - s.due }

// openLoop runs do(worker, i) for every i at dues[i] after the start,
// over workers senders that each carry one operation at a time, and
// waits for all of them. When every sender is busy an operation goes out
// late, and its latency still counts from its due time.
func openLoop(dues []time.Duration, workers int, do func(worker, i int)) []sample {
	samples := make([]sample, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				if d := dues[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				do(w, i)
				samples[i] = sample{due: dues[i], sent: sent, done: time.Since(start)}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// closedLoop runs workers senders, each issuing do(worker, seq) for
// seq = 0, 1, ... back to back until d has passed, and waits for them.
// It returns each worker's samples in order, and the wall time from the
// start to the last completion.
func closedLoop(workers int, d time.Duration, do func(worker, seq int)) ([][]sample, time.Duration) {
	out := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; time.Since(start) < d; seq++ {
				sent := time.Since(start)
				do(w, seq)
				out[w] = append(out[w], sample{due: sent, sent: sent, done: time.Since(start)})
			}
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}

// usage is a point-in-time reading of the process's resource use.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// cpuUtil is the process CPU time between a and b over the wall time
// times nproc: near 1 means the load generator and the program together
// saturated the machine, and the numbers then measure the scheduler.
func cpuUtil(a, b usage, nproc int) float64 {
	wall := b.wall.Sub(a.wall)
	if wall <= 0 {
		return 0
	}
	return float64(b.cpu-a.cpu) / (float64(wall) * float64(nproc))
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time, user and system, the calling OS thread has
// used; the caller keeps its goroutine on one thread. Work that runs on
// that goroutine alone and never blocks takes this long on a CPU of its
// own; wall time adds whatever the thread spent waiting for a CPU, which
// on a shared VM includes the time the hypervisor gives to other guests.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// Only a bad clock id or address fails, and both are constants here.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
