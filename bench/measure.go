package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main, a few milliseconds after exec.
var processStart = time.Now()

// summary is a timing's raw samples next to its order statistics.
type summary struct {
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	s := summary{N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	return s
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance check applies to the
// reported values; sorted must be ascending and non-empty.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(samples []float64) float64 { return summarize(samples).Median }

// percentile is the nearest-rank p-th percentile (0 < p ≤ 1).
func percentile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	k := int(p*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// cpuSeconds is user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSBytes reads VmHWM, the resident-set high-water mark.
func peakRSSBytes() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024
		}
	}
	return 0
}

// heapSampler records the maximum HeapAlloc seen every 5 ms.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return float64(<-h.peak)
}

// loopMeter brackets a timed loop: CPU, allocation and peak heap over
// the loop only, starting from a settled heap.
type loopMeter struct {
	start   time.Time
	cpu     float64
	alloc   uint64
	sampler *heapSampler
}

func startLoopMeter() *loopMeter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &loopMeter{start: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, sampler: startHeapSampler()}
}

type loopTotals struct {
	wall, cpu, alloc, peakHeap float64
}

func (m *loopMeter) Stop() loopTotals {
	wall := time.Since(m.start).Seconds()
	peak := m.sampler.Stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return loopTotals{wall: wall, cpu: cpuSeconds() - m.cpu, alloc: float64(ms.TotalAlloc - m.alloc), peakHeap: peak}
}
