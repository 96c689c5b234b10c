package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// samples are per-operation measurements of one kind.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// forPhase calls op for the ops of one timed phase: it cycles through
// n inputs (k is the input of op i) until seconds have passed, and at
// least once through all of them.
func forPhase(n int, seconds float64, op func(i, k int)) {
	start := time.Now()
	for i := 0; i < n || time.Since(start).Seconds() < seconds; i++ {
		op(i, i%n)
	}
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// above it — the (tailBeyond+1)-th largest sample — with that
// percentile. When that percentile would not lie above the median it
// returns the maximum (pct 100).
func (s samples) tail() (v, pct float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0, 0
	}
	if n <= 2*tailBeyond+1 {
		return c[n-1], 100
	}
	i := n - 1 - tailBeyond
	return c[i], 100 * float64(i+1) / float64(n)
}

// tailNote describes a tail value's percentile and base.
func (s samples) tailNote(what string) string {
	_, pct := s.tail()
	if pct == 100 {
		return fmt.Sprintf("max of %d %s (too few for %d beyond a percentile above the median)", len(s), what, tailBeyond)
	}
	return fmt.Sprintf("p%.4g of %d %s, %d beyond", pct, len(s), what, tailBeyond)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latency is an op's host time in ms for the latency samples. A failed
// op counts as infinitely slow, so it misses every latency limit.
func latency(d time.Duration, err error) float64 {
	if err != nil {
		return math.Inf(1)
	}
	return ms(d)
}

// ok counts the samples of ops that did not fail.
func (s samples) ok() int {
	n := 0
	for _, v := range s {
		if !math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// okSum sums the samples of ops that did not fail.
func (s samples) okSum() float64 {
	t := 0.0
	for _, v := range s {
		if !math.IsInf(v, 1) {
			t += v
		}
	}
	return t
}

// okMean is the mean of the samples of ops that did not fail.
func (s samples) okMean() float64 { return ratio(s.okSum(), float64(s.ok())) }

// ratio is n/d, or 0 when nothing was measured.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// memCount is a snapshot of the process's cumulative allocation
// counters.
type memCount struct{ mallocs, bytes uint64 }

func readMem() memCount {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCount{m.Mallocs, m.TotalAlloc}
}

func (a memCount) sub(b memCount) memCount {
	return memCount{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

func (a memCount) add(b memCount) memCount {
	return memCount{a.mallocs + b.mallocs, a.bytes + b.bytes}
}

// heapLiveMB collects garbage and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setLatency records the median and tail of per-op host times under
// prefix_p50_ms and prefix_tail_ms.
func (r *report) setLatency(prefix string, s samples, what string) {
	v, _ := s.tail()
	r.set(prefix+"_p50_ms", s.median(), "ms", "host", fmt.Sprintf("median of %d %s", len(s), what))
	r.set(prefix+"_tail_ms", v, "ms", "host", s.tailNote(what))
}

// setAllocs records allocation counts per op from a MemStats delta.
func (r *report) setAllocs(d memCount, ops int, what string) {
	if ops == 0 {
		ops = 1
	}
	note := fmt.Sprintf("runtime.MemStats delta / %d %s", ops, what)
	r.set("allocs_per_op", float64(d.mallocs)/float64(ops), "count", "host", note)
	r.set("alloc_bytes_per_op", float64(d.bytes)/float64(ops), "B", "host", note)
}
