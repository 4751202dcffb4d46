package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailLadder is the set of percentiles latency_tail_ms chooses from; it
// reports the highest one with at least minBeyond samples above it.
// p99.9 and beyond are left out: on a shared two-CPU host their value is
// set by a handful of scheduler and GC stalls and moves by more than the
// benchmark's bound between identical runs.
var tailLadder = []float64{50, 90, 95, 99}

const minBeyond = 10

// nearestRank returns the index of the p-th percentile in a sorted
// sample of size n (nearest-rank definition).
func nearestRank(p float64, n int) int {
	return max(0, min(n-1, int(math.Ceil(p/100*float64(n)))-1))
}

// tail picks the highest ladder percentile that has at least minBeyond
// samples strictly after its rank. sorted must be ascending. With fewer
// than 2*minBeyond+1 samples no ladder step qualifies and the median is
// returned with however many samples lie beyond it.
func tail(sorted []time.Duration) (pct float64, v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if n-1-nearestRank(p, n) >= minBeyond {
			pct = p
		}
	}
	i := nearestRank(pct, n)
	return pct, sorted[i], n - 1 - i
}

// latencySummary is the latency part of the end-to-end report.
type latencySummary struct {
	p50        time.Duration
	tailPct    float64
	tail       time.Duration
	tailBeyond int
	samples    int
}

func summarize(lat []time.Duration) latencySummary {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := latencySummary{samples: len(s)}
	if len(s) > 0 {
		out.p50 = s[nearestRank(50, len(s))]
	}
	out.tailPct, out.tail, out.tailBeyond = tail(s)
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// readUint64Metric samples one runtime/metrics counter or gauge.
func readUint64Metric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readUint64Metric("/gc/heap/allocs:bytes") }

// liveHeapBytes is the heap marked live by the last GC.
func liveHeapBytes() uint64 { return readUint64Metric("/gc/heap/live:bytes") }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
