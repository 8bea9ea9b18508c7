package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds returns the user+system CPU time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procWatch samples the process-level numbers of the traced pass: heap
// traffic and GC work as deltas over the watch, and the goroutine peak from
// a 10ms poll.
type procWatch struct {
	before runtime.MemStats
	peak   int
	stop   chan struct{}
	done   sync.WaitGroup
}

func startProcWatch() *procWatch {
	w := &procWatch{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.before)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the poll and writes the proc.* metrics.
func (w *procWatch) finish(r *report) {
	close(w.stop)
	w.done.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("proc.alloc_mb", float64(after.TotalAlloc-w.before.TotalAlloc)/(1<<20))
	r.set("proc.gc_cycles", float64(after.NumGC-w.before.NumGC))
	r.set("proc.gc_pause_ms", float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e6)
	r.set("proc.goroutines_peak", float64(w.peak))
}
