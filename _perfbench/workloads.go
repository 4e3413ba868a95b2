package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rvcap"
	"rvcap/internal/cluster"
	"rvcap/internal/hist"
	"rvcap/internal/sched"
	"rvcap/internal/sim"
)

// A workload is run as a sequence of batches. A batch is set up from the
// seed alone and always starts from empty caches, so every batch of one
// seed simulates exactly the same thing: its exact counts and sim_digest
// must repeat bit-for-bit, batch after batch and run after run.
type workload struct {
	name string
	why  string
	run  func(seed int64, tr *tracer) (*batch, error)
}

var workloads = []workload{
	{"paper-swap", "the paper's Table IV loop: reconfigure a filter, then filter a 512x512 image; the only workload with real pixel work", runPaperSwap},
	{"steady-stream", "one 2-RP sched.Board under Poisson arrivals; compute is a Sleep, so nearly all host time is reconfiguration", runSteadyStream},
	{"fleet-affinity", "3 boards with module-affinity routing; almost no reconfiguration, so time goes to dispatch, routing and fan-out", runFleetAffinity},
	{"hwicap-keyhole", "AXI_HWICAP reconfiguration, one hart MMIO store per word; the only workload on hwicap and per-word ICAP writes", runHWICAPKeyhole},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batch is what one batch measured. Host times cover only the job phase
// unless named otherwise; exact holds the simulated counts, which depend
// on the seed alone.
type batch struct {
	setup   time.Duration   // set-up before the job phase
	wall    time.Duration   // host wall of the job phase
	jobs    int             // jobs attempted
	failed  int             // jobs that failed a check or returned an error
	jobWall []time.Duration // per-job host wall, where each job is its own call
	simSec  float64         // simulated seconds the job phase covered
	mallocs uint64          // heap allocations during the job phase

	// liveHeap is the live heap right after the job phase while the
	// batch's System is still reachable (0 in traced batches and where the
	// workload's state is internal to the call it times).
	liveHeap uint64

	// Reconfiguration calls the benchmark times itself: bytes they
	// delivered to the ICAP and the host wall spent in them.
	icapBytes  int
	reconfWall time.Duration

	// Calibration error against the paper's numbers, with the tolerance
	// the model is held to and a readable breakdown (empty where the
	// workload has no paper anchor).
	paperErrPct float64
	paperTolPct float64
	paperDetail string

	exact  []metric
	digest string

	// failNote is the first failed job's reason.
	failNote string

	// Host CPU over wall during the job phase.
	cpuPerWall float64
}

// fail counts n failed jobs and keeps the first reason.
func (b *batch) fail(n int, format string, args ...any) {
	b.failed += n
	if b.failNote == "" {
		b.failNote = fmt.Sprintf(format, args...)
	}
}

// metric is one named value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// jobPhase brackets a batch's timed job phase: host wall, process CPU
// and heap allocations.
type jobPhase struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
}

func startJobs() jobPhase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return jobPhase{start: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs}
}

func (p jobPhase) finish(b *batch) {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mallocs = ms.Mallocs - p.mallocs
	if wall > 0 {
		b.cpuPerWall = float64(cpu) / float64(wall)
	}
}

// digestWriter accumulates the simulated outputs of a batch.
type digestWriter struct{ buf []byte }

func (d *digestWriter) str(s string) {
	d.buf = binary.BigEndian.AppendUint32(d.buf, uint32(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digestWriter) f64(v float64) {
	d.buf = binary.BigEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *digestWriter) u64(v uint64) { d.buf = binary.BigEndian.AppendUint64(d.buf, v) }

func (d *digestWriter) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

// jsonDigest hashes the canonical JSON of a simulation result.
func jsonDigest(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(buf)
	return hex.EncodeToString(s[:]), nil
}

// paperTexMicros is Table IV's measured T_ex per filter.
var paperTexMicros = map[string]float64{
	rvcap.Gaussian: 2275,
	rvcap.Median:   2267,
	rvcap.Sobel:    2257,
}

// paperHWICAPMBs is the paper's AXI_HWICAP throughput with a 16-way
// unrolled store loop.
const paperHWICAPMBs = 8.23

// Paper-anchor tolerances: T_ex within 0.1% of Table IV; the HWICAP
// throughput reads 8.23 MB/s at the paper's two decimals.
const (
	texTolerancePct    = 0.1
	hwicapTolerancePct = 0.005 / paperHWICAPMBs * 100
)

// swapJobs is the paper-swap batch length: eight passes over the three
// filters.
const swapJobs = 24

// runPaperSwap: each job is one System.Run that reconfigures the
// partition with the next filter (the seed draws the cycle order) and
// filters a 512x512 TestPattern, as in the paper's Table IV.
func runPaperSwap(seed int64, tr *tracer) (*batch, error) {
	b := &batch{paperTolPct: texTolerancePct}
	t0 := time.Now()
	sys, err := rvcap.New()
	if err != nil {
		return nil, err
	}
	filters := []string{rvcap.Gaussian, rvcap.Median, rvcap.Sobel}
	var mods []*rvcap.Module
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(filters)) {
		m, err := sys.DefineFilterModule(filters[i])
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	src := rvcap.TestPattern(512, 512)
	want := make(map[string][]byte)
	for _, f := range filters {
		ref, err := rvcap.ApplyReference(f, src)
		if err != nil {
			return nil, err
		}
		want[f] = ref.Pix
	}
	b.setup = time.Since(t0)

	hw := sys.HW()
	ev0, now0 := hw.K.Events(), hw.K.Now()
	words0, frames0 := hw.ICAP.Words(), hw.ICAP.FramesWritten()
	mmio0, inst0 := hw.Hart.MMIOOps(), hw.Hart.Instret()
	ddr0 := hw.DDR.BytesRead() + hw.DDR.BytesWritten()
	var (
		dg              = digestWriter{buf: make([]byte, 0, swapJobs*64)}
		beats, consumed uint64
		td, trUs, tc    float64
		texSum          = make(map[string]float64)
		texN            = make(map[string]int)
		filterWalls     = make([]time.Duration, 0, swapJobs)
		reconfWalls     = make([]time.Duration, 0, swapJobs)
	)
	b.jobWall = make([]time.Duration, 0, swapJobs)
	phase := startJobs()
	for j := 0; j < swapJobs; j++ {
		m := mods[j%len(mods)]
		job := tr.newJob()
		js := tr.begin("job", 0, job)
		var (
			rt, ft rvcap.Timing
			out    *rvcap.Image
			active string
		)
		err := sys.Run(func(s *rvcap.Session) error {
			sp := tr.begin("Reconfigure", js.id, job)
			var err error
			rt, err = s.Reconfigure(m)
			d := tr.end(sp)
			b.reconfWall += d
			reconfWalls = append(reconfWalls, d)
			if err != nil {
				return err
			}
			active = sys.ActiveModule()
			sp = tr.begin("FilterImage", js.id, job)
			out, ft, err = s.FilterImage(src)
			filterWalls = append(filterWalls, tr.end(sp))
			if err != nil {
				return err
			}
			in, o := hw.ActiveRMStreams()
			beats += in.Pushed() + o.Popped()
			consumed += in.Popped() + o.Pushed()
			return nil
		})
		b.jobWall = append(b.jobWall, tr.end(js))
		b.jobs++
		if err != nil || active != m.Name || rt.Bytes != m.BitstreamBytes() ||
			out == nil || !bytes.Equal(out.Pix, want[m.Name]) {
			b.fail(1, "job %d (%s): error %v, active %q, %d of %d bytes, output equals reference %v",
				j, m.Name, err, active, rt.Bytes, m.BitstreamBytes(), out != nil && bytes.Equal(out.Pix, want[m.Name]))
			continue
		}
		b.icapBytes += rt.Bytes
		td += rt.DecisionMicros
		trUs += rt.ReconfigMicros
		tc += ft.ComputeMicros
		texSum[m.Name] += rt.DecisionMicros + rt.ReconfigMicros + ft.ComputeMicros
		texN[m.Name]++
		dg.str(m.Name)
		dg.f64(rt.DecisionMicros)
		dg.f64(rt.ReconfigMicros)
		dg.f64(ft.ComputeMicros)
		dg.u64(uint64(rt.Bytes))
		img := sha256.Sum256(out.Pix)
		dg.buf = append(dg.buf, img[:]...)
	}
	for _, d := range b.jobWall {
		b.wall += d
	}
	phase.finish(b)
	if !tr.on {
		b.liveHeap = liveHeap() // a full GC; kept out of traced batches' profiles
	}

	n := float64(b.jobs)
	b.simSec = sim.Micros(hw.K.Now()-now0) / 1e6
	b.exact = []metric{
		{"sim.events_per_job", float64(hw.K.Events()-ev0) / n, "count"},
		{"axi.stream_beats_per_job", float64(beats) / n, "count"},
		{"dma.bytes_per_job", float64(hw.DDR.BytesRead()+hw.DDR.BytesWritten()-ddr0) / n, "B"},
		{"fpga.icap_words_per_job", float64(hw.ICAP.Words()-words0) / n, "count"},
		{"fpga.frames_written_per_job", float64(hw.ICAP.FramesWritten()-frames0) / n, "count"},
		{"accel.beats_per_job", float64(consumed) / n, "count"},
		{"accel.tc_us", tc / n, "us"},
		{"driver.td_us", td / n, "us"},
		{"fpga.tr_us", trUs / n, "us"},
		{"soc.mmio_ops_per_job", float64(hw.Hart.MMIOOps()-mmio0) / n, "count"},
		{"soc.instret_per_job", float64(hw.Hart.Instret()-inst0) / n, "count"},
	}
	b.digest = dg.sum()
	for _, f := range filters {
		mean := texSum[f] / float64(texN[f])
		e := math.Abs(mean-paperTexMicros[f]) / paperTexMicros[f] * 100
		b.paperErrPct = math.Max(b.paperErrPct, e)
		b.paperDetail += fmt.Sprintf(" %s T_ex %.1f us vs %.0f (%.3f%%);", f, mean, paperTexMicros[f], e)
	}
	tr.callWalls("driver.reconfigure_call_ms", reconfWalls)
	tr.callWalls("accel.filter_call_ms", filterWalls)
	runtime.KeepAlive(sys)
	return b, nil
}

// keyholeJobs is the hwicap-keyhole batch length.
const keyholeJobs = 3

// runHWICAPKeyhole: each job is one System.Run that loads a module (the
// seed draws the sequence) through the AXI_HWICAP baseline with the
// paper's 16-way unrolled store loop.
func runHWICAPKeyhole(seed int64, tr *tracer) (*batch, error) {
	b := &batch{paperTolPct: hwicapTolerancePct}
	t0 := time.Now()
	sys, err := rvcap.New()
	if err != nil {
		return nil, err
	}
	var mods []*rvcap.Module
	for _, f := range []string{rvcap.Gaussian, rvcap.Median, rvcap.Sobel} {
		m, err := sys.DefineFilterModule(f)
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]*rvcap.Module, keyholeJobs)
	for i := range seq {
		seq[i] = mods[rng.Intn(len(mods))]
	}
	b.setup = time.Since(t0)

	hw := sys.HW()
	ev0, now0 := hw.K.Events(), hw.K.Now()
	words0, frames0 := hw.ICAP.Words(), hw.ICAP.FramesWritten()
	mmio0, inst0 := hw.Hart.MMIOOps(), hw.Hart.Instret()
	hwWords0, over0 := hw.HWICAP.Words(), hw.HWICAP.Overflows()
	var (
		dg        digestWriter
		trSum     float64
		mbsSum    float64
		callWalls []time.Duration
	)
	phase := startJobs()
	for _, m := range seq {
		job := tr.newJob()
		js := tr.begin("job", 0, job)
		var (
			t      rvcap.Timing
			active string
		)
		err := sys.Run(func(s *rvcap.Session) error {
			sp := tr.begin("ReconfigureHWICAP", js.id, job)
			var err error
			t, err = s.ReconfigureHWICAP(m, 16)
			d := tr.end(sp)
			b.reconfWall += d
			callWalls = append(callWalls, d)
			active = sys.ActiveModule()
			return err
		})
		b.jobWall = append(b.jobWall, tr.end(js))
		b.jobs++
		if err != nil || active != m.Name || t.Bytes != m.BitstreamBytes() {
			b.fail(1, "job %s: error %v, active %q, %d of %d bytes", m.Name, err, active, t.Bytes, m.BitstreamBytes())
			continue
		}
		b.icapBytes += t.Bytes
		trSum += t.ReconfigMicros
		mbsSum += t.ThroughputMBs()
		dg.str(m.Name)
		dg.f64(t.ReconfigMicros)
		dg.u64(uint64(t.Bytes))
	}
	for _, d := range b.jobWall {
		b.wall += d
	}
	phase.finish(b)
	if !tr.on {
		b.liveHeap = liveHeap() // a full GC; kept out of traced batches' profiles
	}

	n := float64(b.jobs)
	b.simSec = sim.Micros(hw.K.Now()-now0) / 1e6
	b.exact = []metric{
		{"sim.events_per_job", float64(hw.K.Events()-ev0) / n, "count"},
		{"fpga.icap_words_per_job", float64(hw.ICAP.Words()-words0) / n, "count"},
		{"fpga.frames_written_per_job", float64(hw.ICAP.FramesWritten()-frames0) / n, "count"},
		{"fpga.tr_us", trSum / n, "us"},
		{"soc.mmio_ops_per_job", float64(hw.Hart.MMIOOps()-mmio0) / n, "count"},
		{"soc.instret_per_job", float64(hw.Hart.Instret()-inst0) / n, "count"},
		{"hwicap.words_per_job", float64(hw.HWICAP.Words()-hwWords0) / n, "count"},
		{"hwicap.fifo_overflows", float64(hw.HWICAP.Overflows() - over0), "count"},
	}
	b.digest = dg.sum()
	ok := n - float64(b.failed)
	mbs := mbsSum / ok
	b.paperErrPct = math.Abs(mbs-paperHWICAPMBs) / paperHWICAPMBs * 100
	b.paperDetail = fmt.Sprintf(" HWICAP %.3f MB/s vs %.2f (%.3f%%);", mbs, paperHWICAPMBs, b.paperErrPct)
	tr.callWalls("hwicap.reconfigure_call_ms", callWalls)
	runtime.KeepAlive(sys)
	return b, nil
}

// steadyJobs is the steady-stream batch length (the smallest rung of the
// runtime-steady ladder).
const steadyJobs = 10000

// steadyBoard is the runtime-steady ladder's board: 2 fixed partitions
// and an 8-slot DDR bitstream cache.
func steadyBoard(seed int64) (*sched.Board, error) {
	return sched.NewBoard("B0", sched.Config{RPs: 2, CacheSlots: 8, Seed: seed})
}

func steadyWorkload(seed int64, jobs int) sched.Workload {
	return sched.Workload{Seed: seed, Jobs: jobs, Load: 0.6, RPs: 2, Locality: 0.45}
}

// runSteadyStream streams steadyJobs open-loop Poisson arrivals through
// one fresh board in one RunStream call.
func runSteadyStream(seed int64, tr *tracer) (*batch, error) {
	b := &batch{}
	t0 := time.Now()
	board, err := steadyBoard(seed)
	if err != nil {
		return nil, err
	}
	// Board bring-up (SoC construction and the per-partition bitstream
	// synthesis) happens inside every RunStream; a one-job stream
	// measures it as part of set-up.
	one, err := steadyWorkload(seed, 1).Stream()
	if err != nil {
		return nil, err
	}
	if _, err := board.RunStream(one); err != nil {
		return nil, err
	}
	stream, err := steadyWorkload(seed, steadyJobs).Stream()
	if err != nil {
		return nil, err
	}
	b.setup = time.Since(t0)

	job := tr.newJob()
	phase := startJobs()
	sp := tr.begin("RunStream", 0, job)
	rep, err := board.RunStream(stream)
	b.wall = tr.end(sp)
	phase.finish(b)
	b.jobs = steadyJobs
	if err != nil {
		b.fail(steadyJobs, "RunStream: %v", err)
		return b, nil
	}
	if rep.Jobs != steadyJobs || rep.FailedLoads != 0 || hist.FromSnapshot(rep.Latency).N() != uint64(steadyJobs) {
		b.fail(steadyJobs, "report: %d jobs, %d failed loads, %d latency samples, want %d jobs",
			rep.Jobs, rep.FailedLoads, hist.FromSnapshot(rep.Latency).N(), steadyJobs)
		return b, nil
	}
	b.simSec = rep.MakespanMicros / 1e6
	b.exact = schedExact(rep.Jobs, rep.KernelEvents, []*sched.Report{rep}, rep.P50Micros, rep.P99Micros, rep.MakespanMicros)
	b.digest, err = jsonDigest(rep)
	return b, err
}

// schedExact derives the exact per-job sched counts from board reports.
func schedExact(jobs int, events uint64, reps []*sched.Report, p50, p99, makespan float64) []metric {
	var reconf, hits, cacheHits, cacheMisses, prefetch, evict, failedLoads, retries int
	for _, r := range reps {
		reconf += r.Reconfigs
		hits += r.ResidentHits
		cacheHits += r.CacheHits
		cacheMisses += r.CacheMisses
		prefetch += r.Prefetches
		evict += r.Evictions
		failedLoads += r.FailedLoads
		retries += r.LoadRetries
	}
	n := float64(jobs)
	hitRate := 0.0
	if cacheHits+cacheMisses > 0 {
		hitRate = float64(cacheHits) / float64(cacheHits+cacheMisses)
	}
	return []metric{
		{"sim.events_per_job", float64(events) / n, "count"},
		{"sched.reconfigs_per_job", float64(reconf) / n, "count"},
		{"sched.resident_hit_frac", float64(hits) / n, "ratio"},
		{"sched.cache_hit_rate", hitRate, "ratio"},
		{"sched.prefetches_per_job", float64(prefetch) / n, "count"},
		{"sched.evictions_per_job", float64(evict) / n, "count"},
		{"sched.failed_loads", float64(failedLoads), "count"},
		{"sched.load_retries", float64(retries), "count"},
		{"sched.p50_us", p50, "us"},
		{"sched.p99_us", p99, "us"},
		{"sched.makespan_us", makespan, "us"},
	}
}

// fleetJobs is the fleet-affinity batch length.
const fleetJobs = 500000

// fleetConfig is the fleet-affinity scenario: one board per filter
// module, so affinity routing pins each module to a board. With a fourth
// board affinity leaves one idle and the overloaded board's backlog
// dominates the profile, which is not a steady state.
func fleetConfig(seed int64) cluster.Config {
	return cluster.Config{
		Seed:     seed,
		Boards:   3,
		Policy:   cluster.ModuleAffinity,
		Tenants:  3,
		Jobs:     fleetJobs,
		Load:     0.6,
		Locality: 0.9,
		Board:    sched.Config{RPs: 2, CacheSlots: 8},
		Workers:  runtime.NumCPU(),
	}
}

// runFleetAffinity runs one cluster.Run over fleetJobs jobs. Set-up is
// the workload generation cluster.Run starts with, done once on its own.
func runFleetAffinity(seed int64, tr *tracer) (*batch, error) {
	b := &batch{}
	cfg := fleetConfig(seed)
	t0 := time.Now()
	if _, err := sched.NewBoard("B0", cfg.Board); err != nil {
		return nil, err
	}
	job := tr.newJob()
	sp := tr.begin("Generate", 0, job)
	gen, err := cluster.FleetWorkload{
		Seed: cfg.Seed, Tenants: cfg.Tenants, Jobs: cfg.Jobs,
		Load: cfg.Load, Locality: cfg.Locality,
		Boards: cfg.Boards, BoardRPs: cfg.Board.RPs,
	}.Generate()
	tr.callWalls("cluster.generate_ms", []time.Duration{tr.end(sp)})
	if err != nil {
		return nil, err
	}
	if len(gen) != fleetJobs {
		return nil, fmt.Errorf("fleet workload generated %d jobs, want %d", len(gen), fleetJobs)
	}
	b.setup = time.Since(t0)

	phase := startJobs()
	sp = tr.begin("cluster.Run", 0, job)
	res, err := cluster.Run(cfg)
	b.wall = tr.end(sp)
	phase.finish(b)
	b.jobs = fleetJobs
	if err != nil {
		b.fail(fleetJobs, "cluster.Run: %v", err)
		return b, nil
	}
	if !fleetConsistent(res) {
		b.fail(fleetJobs, "fleet result does not account for its %d jobs", fleetJobs)
		return b, nil
	}
	b.simSec = res.MakespanMicros / 1e6
	reps := make([]*sched.Report, len(res.PerBoard))
	maxShare := 0
	for i, bs := range res.PerBoard {
		reps[i] = bs.Report
		maxShare = max(maxShare, bs.Routed)
	}
	b.exact = append(schedExact(res.Jobs, res.KernelEvents, reps, res.P50Micros, res.P99Micros, res.MakespanMicros),
		metric{"cluster.affinity_hit_frac", float64(res.AffinityHits) / float64(res.Jobs), "ratio"},
		metric{"cluster.max_board_share", float64(maxShare) / float64(res.Jobs), "ratio"},
		metric{"cluster.cross_board_moves", float64(res.CrossBoardMoves), "count"},
	)
	b.digest, err = jsonDigest(res)
	return b, err
}

// fleetConsistent checks a fault-free fleet result: every job routed,
// run and counted in the merged latency histogram, and no failed load.
func fleetConsistent(res *cluster.Result) bool {
	if res.Jobs != fleetJobs || hist.FromSnapshot(res.Latency).N() != uint64(fleetJobs) {
		return false
	}
	routed := 0
	for _, bs := range res.PerBoard {
		routed += bs.Routed
		if bs.Report == nil || bs.Jobs != bs.Routed || bs.FailedLoads != 0 {
			return false
		}
	}
	return routed == fleetJobs
}
