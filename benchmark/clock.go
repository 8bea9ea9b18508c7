package main

import (
	"math"
	"time"
)

// The reference box's virtual CPUs are threads of a shared Xeon whose core
// clock moves between turbo bins with the load other tenants put on the
// socket: 3.9, 3.5, 3.4 and 3.3 GHz were seen within one hour, each held for
// seconds to minutes. Every CPU-bound time in the program moves with it, by
// up to 17 %: most of what the widest regression bound allows. So the
// benchmark measures the clock while it measures the program and
// reports every time as it would have read on a fixed reference clock:
// t × clockScale(), with the scale taken next to the sample it corrects.
//
// The probe is a chain of dependent multiply-adds: a fixed number of core
// cycles that no cache, allocator or scheduler changes, so its duration is
// the reciprocal of the clock. Same seed, same binary, raw and scaled runs
// alternating, eight of each: the spread of op_p01_us falls from 13.5 % to
// 1.2 % on paper-train and from 14.6 % to 6.7 % on quote-cold. Cache
// contention does not follow the core clock, so what other tenants do to the
// shared caches remains (see metrics.go for what that does to medians).
const (
	// chainLinks dependent multiply-adds take about 20 µs: long against the
	// timer's resolution, short against a scheduler tick.
	chainLinks = 10000
	// refLinkNS is the reference clock: two nanoseconds per link, eight
	// cycles of multiply and add latency at 4 GHz.
	refLinkNS = 2.0
	// chainReps: an interrupt can only lengthen a chain, so the shortest of a
	// few is the clock.
	chainReps = 5
)

// clockScale measures the core clock now and returns the factor that turns a
// time measured now into reference-clock time: below 1 on a clock slower
// than the reference. It takes about 0.1 ms.
func clockScale() float64 {
	best, sink := math.MaxFloat64, 0.0
	for rep := 0; rep < chainReps; rep++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < chainLinks; i++ {
			x = x*1.0000001 + 1e-9
		}
		d := time.Since(t0).Seconds()
		sink += x
		best = min(best, d)
	}
	if sink == 0 { // never: the chain's result is used so that it is computed
		return 1
	}
	return refLinkNS * 1e-9 * chainLinks / best
}
