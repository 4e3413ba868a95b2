// Command perfbench is the simulator's benchmark. It runs one workload
// through the simulator's public entry points for a fixed time, checks
// every simulated output, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// tracing. With -trace 1 the run is split into an untraced part, a
// traced part (spans around every public call and a CPU profile folded
// by layer) and the layer micro-measurements, and the metrics are the
// per-layer ones. Lines above the JSON report every metric with its unit
// and direction, the exact simulated counts, the sim_digest and the
// host. -workload all -trace 1 prints the per-layer table of every
// workload instead.
//
// Build and run it from the checkout root with _perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is a metric's unit and the direction that is better.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a -trace 0 run reports for every workload.
var endToEnd = []metricSpec{
	{"host_ns_per_job", "ns", "lower"},
	{"sim_s_per_host_s", "s/s", "higher"},
	{"peak_heap_mb", "MiB", "lower"},
	{"allocs_per_job", "count", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a -trace 1 run reports for every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metricSpec{
	{"sim.events_per_job", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.schedule_ns", "ns", "lower"},
	{"sim.proc_switch_ns", "ns", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"axi.stream_beats_per_job", "count", "lower"},
	{"axi.stream_hop_ns_per_beat", "ns", "lower"},
	{"axi.self_pct", "%", "lower"},
	{"dma.bytes_per_job", "B", "lower"},
	{"dma.self_pct", "%", "lower"},
	{"core.self_pct", "%", "lower"},
	{"mem.self_pct", "%", "lower"},
	{"fpga.icap_words_per_job", "count", "lower"},
	{"fpga.frames_written_per_job", "count", "lower"},
	{"fpga.icap_ns_per_mb", "ns/MB", "lower"},
	{"fpga.hash_ns_per_mb", "ns/MB", "lower"},
	{"fpga.tr_us", "us", "lower"},
	{"fpga.self_pct", "%", "lower"},
	{"bitstream.partial_ns_per_mb", "ns/MB", "lower"},
	{"bitstream.parse_ns_per_mb", "ns/MB", "lower"},
	{"bitstream.self_pct", "%", "lower"},
	{"accel.filter_call_ms", "ms", "lower"},
	{"accel.beats_per_job", "count", "lower"},
	{"accel.tc_us", "us", "lower"},
	{"accel.self_pct", "%", "lower"},
	{"driver.reconfigure_call_ms", "ms", "lower"},
	{"driver.td_us", "us", "lower"},
	{"driver.self_pct", "%", "lower"},
	{"soc.mmio_ops_per_job", "count", "lower"},
	{"soc.instret_per_job", "count", "lower"},
	{"soc.self_pct", "%", "lower"},
	{"hwicap.reconfigure_call_ms", "ms", "lower"},
	{"hwicap.words_per_job", "count", "lower"},
	{"hwicap.fifo_overflows", "count", "lower"},
	{"hwicap.self_pct", "%", "lower"},
	{"sched.reconfigs_per_job", "count", "lower"},
	{"sched.resident_hit_frac", "ratio", "higher"},
	{"sched.cache_hit_rate", "ratio", "higher"},
	{"sched.prefetches_per_job", "count", "lower"},
	{"sched.evictions_per_job", "count", "lower"},
	{"sched.failed_loads", "count", "lower"},
	{"sched.load_retries", "count", "lower"},
	{"sched.p50_us", "us", "lower"},
	{"sched.p99_us", "us", "lower"},
	{"sched.makespan_us", "us", "lower"},
	{"sched.self_pct", "%", "lower"},
	{"cluster.generate_ms", "ms", "lower"},
	{"cluster.affinity_hit_frac", "ratio", "higher"},
	{"cluster.max_board_share", "ratio", "lower"},
	{"cluster.cross_board_moves", "count", "lower"},
	{"cluster.self_pct", "%", "lower"},
	{"runner.cpu_per_wall", "ratio", "higher"},
	{"runner.self_pct", "%", "lower"},
	{"hist.record_ns", "ns", "lower"},
	{"hist.merge_ns", "ns", "lower"},
	{"hist.self_pct", "%", "lower"},
	{"other.self_pct", "%", "lower"},
	{"harness.self_pct", "%", "lower"},
	{"runtime.gc_pct", "%", "lower"},
	{"runtime.alloc_pct", "%", "lower"},
	{"runtime.other_pct", "%", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "paper-swap", "workload to run, or all (with -trace 1) for the per-layer table")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		outDir  = flag.String("out", ".bench_build/perfbench-out", "directory for span and profile files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	host := fingerprintHost()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion)

	if *name == "all" {
		if *trace != 1 {
			fmt.Fprintln(os.Stderr, "perfbench: -workload all needs -trace 1")
			return 2
		}
		if err := layerTable(*seed, budget, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d (%s)\n", w.name, *seed, *seconds, *trace, w.why)

	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = untracedRun(w, *seed, budget)
	} else {
		res, err = tracedRun(w, *seed, budget, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(buf))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStats is what a sequence of batches measured.
type runStats struct {
	batches   []*batch
	peakHeap  uint64
	attempted int
	failed    int
	// problems lists every failed check: failed jobs, batches whose
	// exact counts or digest differ from the first batch, and paper
	// anchors out of tolerance.
	problems []string
}

// measure calls next for batches 0, 1, ... until the next batch would
// end after until; it always runs at least two, so the determinism check
// has a pair. Each batch starts after a full GC, so no batch pays for
// collecting the garbage its predecessor left.
func measure(until time.Time, next func(i int) (*batch, error)) (*runStats, error) {
	rs := &runStats{}
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		b, err := next(i)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		rs.add(b)
		if i >= 1 && time.Now().Add(time.Since(start)).After(until) {
			return rs, nil
		}
	}
}

func (rs *runStats) add(b *batch) {
	rs.batches = append(rs.batches, b)
	rs.attempted += b.jobs
	rs.failed += b.failed
	if b.failNote != "" {
		rs.problems = append(rs.problems, fmt.Sprintf("batch %d: %d jobs failed, first: %s", len(rs.batches)-1, b.failed, b.failNote))
	}
	first := rs.batches[0]
	if b.digest != first.digest || !sameMetrics(b.exact, first.exact) {
		rs.problems = append(rs.problems, fmt.Sprintf("batch %d: simulated results differ from batch 0", len(rs.batches)-1))
	}
	if b.paperDetail != "" && !(b.paperErrPct <= b.paperTolPct) {
		rs.problems = append(rs.problems, fmt.Sprintf("batch %d: paper anchor off by %.4f%% (tolerance %.4f%%):%s",
			len(rs.batches)-1, b.paperErrPct, b.paperTolPct, b.paperDetail))
	}
}

func sameMetrics(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (rs *runStats) correct() bool { return len(rs.problems) == 0 }

// perBatch returns f over every batch.
func (rs *runStats) perBatch(f func(*batch) float64) []float64 {
	out := make([]float64, len(rs.batches))
	for i, b := range rs.batches {
		out[i] = f(b)
	}
	return out
}

func nsPerJob(b *batch) float64 { return float64(b.wall.Nanoseconds()) / float64(b.jobs) }

// endToEndMetrics computes the end-to-end metrics, each a median over
// batches, and prints them with the workload-specific ones.
func endToEndMetrics(rs *runStats) map[string]float64 {
	peak := rs.peakHeap
	for _, b := range rs.batches {
		peak = max(peak, b.liveHeap)
	}
	m := map[string]float64{
		"host_ns_per_job":  median(rs.perBatch(nsPerJob)),
		"sim_s_per_host_s": median(rs.perBatch(func(b *batch) float64 { return b.simSec / b.wall.Seconds() })),
		"peak_heap_mb":     float64(peak) / (1 << 20),
		"allocs_per_job":   median(rs.perBatch(func(b *batch) float64 { return float64(b.mallocs) / float64(b.jobs) })),
		"setup_s":          median(rs.perBatch(func(b *batch) float64 { return b.setup.Seconds() })),
	}
	for _, s := range endToEnd {
		fmt.Printf("metric %-22s %16.6g %-6s (%s is better)\n", s.name, m[s.name], s.unit, s.better)
	}

	// Metrics that exist only on some workloads; printed, not gated.
	first := rs.batches[0]
	fmt.Printf("metric %-22s %16.6g %-6s (lower is better; %d failed of %d attempted)\n",
		"failed_frac", float64(rs.failed)/float64(rs.attempted), "ratio", rs.failed, rs.attempted)
	if first.icapBytes > 0 {
		fmt.Printf("metric %-22s %16.6g %-6s (lower is better; host ns in the reconfigure calls per MB to ICAP)\n", "host_ns_per_mb",
			median(rs.perBatch(func(b *batch) float64 { return float64(b.reconfWall.Nanoseconds()) / (float64(b.icapBytes) / 1e6) })), "ns/MB")
	}
	if first.jobWall != nil {
		var ms []float64
		for _, b := range rs.batches {
			for _, d := range b.jobWall {
				ms = append(ms, float64(d.Nanoseconds())/1e6)
			}
		}
		fmt.Printf("metric %-22s %16.6g %-6s (lower is better; n=%d)\n", "job_wall_p50_ms", median(ms), "ms", len(ms))
		if p := tailPercentile(len(ms)); p > 0 {
			fmt.Printf("metric %-22s %16.6g %-6s (lower is better; p%g, n=%d)\n", "job_wall_tail_ms", nearestRank(ms, p/100), "ms", p, len(ms))
		}
	}
	if first.paperDetail != "" {
		fmt.Printf("metric %-22s %16.6g %-6s (lower is better; calibration anchor, not held-out data:%s)\n",
			"paper_err_pct", first.paperErrPct, "%", first.paperDetail)
	}
	return m
}

// printExact prints the exact simulated counts and the sim_digest.
func printExact(rs *runStats) {
	first := rs.batches[0]
	for _, e := range first.exact {
		fmt.Printf("exact  %-28s %.17g %s\n", e.name, e.value, e.unit)
	}
	fmt.Printf("exact  %-28s %s\n", "sim_digest", first.digest)
	for _, p := range rs.problems {
		fmt.Println("FAIL", p)
	}
}

func untracedRun(w workload, seed int64, budget time.Duration) (*result, error) {
	tr := newTracer(false)
	heap := startPeakHeap()
	rs, err := measure(time.Now().Add(budget), func(int) (*batch, error) { return w.run(seed, tr) })
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	rs.peakHeap = peak
	fmt.Printf("batches: %d\n", len(rs.batches))
	m := endToEndMetrics(rs)
	printExact(rs)
	return newResult(rs, m, endToEnd), nil
}

func newResult(rs *runStats, m map[string]float64, specs []metricSpec) *result {
	res := &result{
		Correct:   rs.correct(),
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{Value: m[s.name], Unit: s.unit}
	}
	return res
}

// tracedRun alternates untraced batches with traced ones (spans kept,
// CPU profile on) for 85% of the budget, then runs the
// micro-measurements.
func tracedRun(w workload, seed int64, budget time.Duration, outDir string) (*result, error) {
	rs, m, err := measureLayers(w, seed, budget, outDir)
	if err != nil {
		return nil, err
	}
	for _, s := range perLayer {
		fmt.Printf("layer  %-28s %16.6g %-6s (%s is better)\n", s.name, m[s.name], s.unit, s.better)
	}
	printExact(rs)
	return newResult(rs, m, perLayer), nil
}

// measureLayers returns the batches of both kinds and the per-layer
// metrics.
func measureLayers(w workload, seed int64, budget time.Duration, outDir string) (*runStats, map[string]float64, error) {
	var (
		plainTr, tr                   = newTracer(false), newTracer(true)
		plainNs, tracedNs, cpuPerWall []float64
		profiles                      [][]byte
	)
	rs, err := measure(time.Now().Add(budget*85/100), func(i int) (*batch, error) {
		if i%2 == 0 {
			b, err := w.run(seed, plainTr)
			if err == nil {
				plainNs = append(plainNs, nsPerJob(b))
				cpuPerWall = append(cpuPerWall, b.cpuPerWall)
			}
			return b, err
		}
		prof, err := startCPUProfile()
		if err != nil {
			return nil, err
		}
		b, err := w.run(seed, tr)
		profiles = append(profiles, prof.stop())
		if err == nil {
			tracedNs = append(tracedNs, nsPerJob(b))
		}
		return b, err
	})
	if err != nil {
		return nil, nil, err
	}
	micro, err := runMicro()
	if err != nil {
		return nil, nil, err
	}
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := tr.writeSpans(filepath.Join(outDir, base+"-spans.json")); err != nil {
		return nil, nil, err
	}
	var samples []cpuSample
	for i, raw := range profiles {
		s, err := decodeProfile(raw)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s...)
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-cpu%d.pprof", base, i)), raw, 0o644); err != nil {
			return nil, nil, err
		}
	}

	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	for _, e := range rs.batches[0].exact {
		m[e.name] = e.value
	}
	for _, e := range micro {
		m[e.name] = e.value
	}
	shares := foldProfile(samples)
	for _, name := range shareNames {
		key := name + ".self_pct"
		if strings.HasPrefix(name, "runtime.") {
			key = name + "_pct"
		}
		m[key] = shares[name]
	}
	if ev := m["sim.events_per_job"]; ev > 0 {
		m["sim.ns_per_event"] = median(plainNs) / ev
	}
	m["trace.overhead_ratio"] = median(tracedNs) / median(plainNs)
	m["runner.cpu_per_wall"] = median(cpuPerWall)
	for _, name := range []string{"driver.reconfigure_call_ms", "accel.filter_call_ms", "hwicap.reconfigure_call_ms", "cluster.generate_ms"} {
		m[name] = tr.medianMillis(name)
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is %v", name, v)
		}
	}
	return rs, m, nil
}

// layerTable runs every workload's traced measurement and prints one row
// per per-layer metric and one column per workload.
func layerTable(seed int64, budget time.Duration, outDir string) error {
	cols := make([]map[string]float64, len(workloads))
	for i, w := range workloads {
		rs, m, err := measureLayers(w, seed, budget, outDir)
		if err != nil {
			return err
		}
		if !rs.correct() {
			return fmt.Errorf("%s: %s", w.name, strings.Join(rs.problems, "; "))
		}
		cols[i] = m
	}
	fmt.Printf("%-30s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %15s", w.name)
	}
	fmt.Println()
	for _, s := range perLayer {
		fmt.Printf("%-30s", s.name+" ("+s.unit+")")
		for _, m := range cols {
			fmt.Printf(" %15.4g", m[s.name])
		}
		fmt.Println()
	}
	return nil
}
