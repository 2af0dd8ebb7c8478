package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between order statistics. Empty samples read 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailLadder is the percentiles a timing may be reported at, lowest first,
// as the share of samples beyond each: one in 10, in 100, in 1000.
var tailLadder = []int{10, 100, 1000}

// highestPercentile applies the reporting rule for timings: alongside the
// median, report the highest percentile that still has at least ten samples
// beyond it. It returns 0 when even p90 is not supported (fewer than 100
// samples) — the median then stands alone.
func highestPercentile(samples int) float64 {
	best := 0.0
	for _, oneIn := range tailLadder {
		if samples/oneIn >= 10 {
			best = 1 - 1/float64(oneIn)
		}
	}
	return best
}

// spread is the interquartile range as a share of the median, the steadiness
// figure -compare judges a metric's bound against. Quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method) so the figure matches
// what the acceptance driver computes.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter accumulates wall time, process CPU time and (when allocs is set)
// the process malloc count over the stretches between resume and pause, so a
// workload can keep the harness's own verification and generation work out of
// the figures. The malloc count stops the world, so only traced passes ask
// for it.
type meter struct {
	allocs bool

	wall    time.Duration
	cpu     time.Duration
	mallocs uint64

	t0 time.Time
	c0 time.Duration
	m0 uint64
}

func (m *meter) resume() {
	if m.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.m0 = ms.Mallocs
	}
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) pause() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.c0
	if m.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.mallocs += ms.Mallocs - m.m0
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
