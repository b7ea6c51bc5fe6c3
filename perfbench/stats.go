package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTailSamples is the sample count below which a run's p90 is not
// reported: p90 is only meaningful with at least ten samples beyond it.
const minTailSamples = 100

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice. Nearest rank returns an observed
// sample, never an interpolated one: the median of an even-sized slice
// is its lower middle element.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencySummary is one latency distribution as the benchmark reports it.
type latencySummary struct {
	n      int
	p50    time.Duration
	p90    time.Duration
	hasP90 bool // false when n < minTailSamples
}

// summarize sorts samples (nanoseconds) in place and summarizes them.
func summarize(samples []int64) latencySummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := latencySummary{n: len(samples), p50: time.Duration(percentile(samples, 50))}
	if len(samples) >= minTailSamples {
		s.p90 = time.Duration(percentile(samples, 90))
		s.hasP90 = true
	}
	return s
}

// ratio returns num/den, or 0 when den is 0 (nothing to divide by: the
// layer did no work on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// micros converts a duration to fractional microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procSample is a snapshot of the process-wide counters the end-to-end
// metrics difference: heap allocations, GC cycles and CPU time.
type procSample struct {
	at         time.Time
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	cpu        time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:         time.Now(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		cpu:        cpuTime(),
	}
}

// procDelta is the difference between two procSamples.
type procDelta struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	cpu        time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:       b.at.Sub(a.at),
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.totalAlloc - a.totalAlloc,
		gcs:        b.numGC - a.numGC,
		cpu:        b.cpu - a.cpu,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianFloat is the median of vs: the middle value, or the mean of the
// two middle values of an even count; 0 for none.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
