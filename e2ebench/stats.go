package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile of xs by linear interpolation
// between the closest ranks (p = 50 is the median); NaN when xs is
// empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// nearestRank returns the smallest x in xs such that at least p percent
// of xs are at most x; NaN when xs is empty.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// slotLatency returns the p-th percentile, by nearest rank, of the
// slots' median wall times, where slots[k] holds slot k's wall time in
// every round. It reads one operation's typical wall time. Over every
// timed operation at once, the 90th percentile of exact_kernels fell in
// the fastest tenth of its two slowest compiles, where they meet the
// next ones, and moved by a quarter between runs of the same code.
func slotLatency(slots [][]float64, p float64) float64 {
	meds := make([]float64, len(slots))
	for k, xs := range slots {
		meds[k] = percentile(xs, 50)
	}
	return nearestRank(meds, p)
}

// above counts the xs greater than v.
func above(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        float64 // user+system CPU seconds
	gcCPU      float64 // CPU seconds spent in the garbage collector
	allocBytes float64 // cumulative heap bytes allocated
	mallocs    float64 // cumulative heap objects allocated
	peakRSS    float64 // peak resident set in bytes
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// sample reads the process's resource counters.
func sample() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	tv := func(t syscall.Timeval) float64 { return float64(t.Nano()) / float64(time.Second) }
	return usage{
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		allocBytes: float64(runtimeSamples[0].Value.Uint64()),
		mallocs:    float64(runtimeSamples[1].Value.Uint64()),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		peakRSS:    float64(ru.Maxrss) * 1024, // Linux reports KiB
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
