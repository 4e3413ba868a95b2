package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into the simulator's public API. Spans of one
// job share Job; Parent is the enclosing span's ID (0 at top level).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the benchmark's calls into the simulator. Durations are
// always returned, since the end-to-end metrics need some of them; spans
// and per-call walls are only kept when on is set, in memory, and are
// written out when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	jobs  int
	walls map[string][]time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), walls: make(map[string][]time.Duration)}
}

// spanHandle is an open span.
type spanHandle struct {
	id    int
	start time.Time
}

func (tr *tracer) newJob() int {
	tr.jobs++
	return tr.jobs
}

func (tr *tracer) begin(name string, parent, job int) spanHandle {
	h := spanHandle{start: time.Now()}
	if tr.on {
		h.id = len(tr.spans) + 1
		tr.spans = append(tr.spans, span{ID: h.id, Parent: parent, Job: job, Name: name, Start: h.start.Sub(tr.t0).Nanoseconds()})
	}
	return h
}

// end closes h and returns its duration.
func (tr *tracer) end(h spanHandle) time.Duration {
	d := time.Since(h.start)
	if h.id > 0 {
		s := &tr.spans[h.id-1]
		s.End = s.Start + d.Nanoseconds()
	}
	return d
}

// callWalls keeps the walls of a layer's calls under a per-layer metric
// name (traced runs only).
func (tr *tracer) callWalls(name string, ds []time.Duration) {
	if tr.on {
		tr.walls[name] = append(tr.walls[name], ds...)
	}
}

// medianMillis returns the median of the walls kept under name, in ms.
func (tr *tracer) medianMillis(name string) float64 {
	var ms []float64
	for _, d := range tr.walls[name] {
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms)
}

// writeSpans writes the kept spans as JSON.
func (tr *tracer) writeSpans(path string) error {
	buf, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// cpuProfile records a CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// layers names the simulator's packages by layer. Packages of the
// module not listed here count as "other"; the benchmark's own code
// counts as "harness".
var layers = map[string]string{
	"rvcap/internal/sim":       "sim",
	"rvcap/internal/axi":       "axi",
	"rvcap/internal/dma":       "dma",
	"rvcap/internal/core":      "core",
	"rvcap/internal/fpga":      "fpga",
	"rvcap/internal/bitstream": "bitstream",
	"rvcap/internal/accel":     "accel",
	"rvcap/internal/mem":       "mem",
	"rvcap/internal/driver":    "driver",
	"rvcap/internal/soc":       "soc",
	"rvcap/internal/plic":      "soc",
	"rvcap/internal/clint":     "soc",
	"rvcap/internal/hwicap":    "hwicap",
	"rvcap/internal/sched":     "sched",
	"rvcap/internal/cluster":   "cluster",
	"rvcap/internal/runner":    "runner",
	"rvcap/internal/hist":      "hist",
}

// shareNames lists every share foldProfile can produce, in report order.
var shareNames = []string{
	"sim", "axi", "dma", "core", "fpga", "bitstream", "accel", "mem", "driver", "soc",
	"hwicap", "sched", "cluster", "runner", "hist", "other", "harness",
	"runtime.gc", "runtime.alloc", "runtime.other",
}

// funcPackage returns the import path of a symbol such as
// "rvcap/internal/fpga.(*ICAP).WriteWord" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.newarray", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap)", "runtime.rawstring", "runtime.rawbyteslice", "runtime.concatstring",
}

func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.GC") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime.markroot" ||
		fn == "runtime.scanobject" || fn == "runtime.sweepone"
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify attributes one sample's stack (leaf first) to a share: GC
// work anywhere on the stack counts as runtime.gc; otherwise the
// leaf-most frame that is an allocation, a coroutine switch (part of
// sim's Proc), or code of the module decides. Standard-library frames
// are charged to the module code that called them.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		switch {
		case hasPrefixAny(fn, allocFrames):
			return "runtime.alloc"
		case strings.HasPrefix(fn, "runtime.coro") || strings.HasPrefix(fn, "iter.Pull"):
			return "sim"
		}
		pkg := funcPackage(fn)
		if l, ok := layers[pkg]; ok {
			return l
		}
		if pkg == "rvcap" || strings.HasPrefix(pkg, "rvcap/") {
			return "other"
		}
		if pkg == "main" {
			return "harness"
		}
	}
	return "runtime.other"
}

// foldProfile folds CPU samples into percent shares per layer.
func foldProfile(samples []cpuSample) map[string]float64 {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		counts[classify(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(shareNames))
	for _, name := range shareNames {
		if total > 0 {
			shares[name] = 100 * float64(counts[name]) / float64(total)
		} else {
			shares[name] = 0
		}
	}
	return shares
}
