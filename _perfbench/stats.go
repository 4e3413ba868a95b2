package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank q-quantile (q in (0,1]) of xs.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it (0 when none does).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// hostFingerprint describes the machine a result was measured on.
// Ratios between results are only meaningful when these agree.
type hostFingerprint struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

func fingerprintHost() hostFingerprint {
	return hostFingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// it is not available).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapLive is the live heap the last completed GC cycle marked.
const heapLive = "/gc/heap/live:bytes"

// peakHeap samples the GC's live-heap figure every millisecond and keeps
// the maximum. Live heap only changes when a GC cycle completes, so the
// sampler sees each cycle's figure; stop forces one last cycle, so
// whatever the caller still holds is counted too. Where the GC happens to
// run decides what a sample sees, so workloads whose state stays
// reachable also take liveHeap at a fixed point.
type peakHeap struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startPeakHeap() *peakHeap {
	h := &peakHeap{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *peakHeap) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return max(h.peak, liveHeap())
}

// liveHeap runs a full GC and returns the live heap it marked.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
