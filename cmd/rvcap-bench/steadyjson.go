package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rvcap"
	"rvcap/internal/sched"
)

// The steady-state benchmark behind BENCH_9.json: the third-round
// runtime record. Where BENCH_5/8 measure the kernel's per-event cost,
// this one measures what the runtime does with a long job stream — a
// single-board streaming ladder (each rung 10x the previous) run
// through Board.RunStream with job-record recycling, so the live heap
// must stay flat however long the run. The rungs record sustained
// events/sec, allocs per job, and the sampled peak heap; the validator
// (benchcheck validateSteady) turns the last two rungs' peak-heap
// ratio into the bounded-memory gate and re-checks the end-to-end
// allocs/op ceiling and events/sec floor against the committed BENCH_8
// baseline.

// benchRun is one measurement of the end-to-end swap-and-compute
// scenario: the shape of BENCH_5/8's runs and of BENCH_9's end_to_end.
type benchRun struct {
	Queue        string  `json:"queue"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	Events       uint64  `json:"events"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// runEndToEnd measures iters iterations of the paper's case-study inner
// loop (reconfigure + filter a 512x512 image) and returns the per-op
// cost, allocation counts and kernel event totals. Queue is always
// "calendar", the kernel's one event queue; the field keeps the record
// comparable with the committed BENCH_5/8 runs.
func runEndToEnd(iters int) (benchRun, error) {
	run := benchRun{Queue: "calendar", Iterations: iters}

	sys, err := rvcap.New(rvcap.WithUnpaddedBitstreams())
	if err != nil {
		return run, err
	}
	var mods []*rvcap.Module
	for _, f := range []string{rvcap.Gaussian, rvcap.Median, rvcap.Sobel} {
		m, err := sys.DefineFilterModule(f)
		if err != nil {
			return run, err
		}
		mods = append(mods, m)
	}
	img := rvcap.TestPattern(512, 512)

	var ms0, ms1 runtime.MemStats
	startEvents := sys.HW().K.Events()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		m := mods[i%len(mods)]
		err := sys.Run(func(s *rvcap.Session) error {
			if _, err := s.Reconfigure(m); err != nil {
				return err
			}
			_, _, err := s.FilterImage(img)
			return err
		})
		if err != nil {
			return run, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	run.NsPerOp = elapsed.Nanoseconds() / int64(iters)
	run.AllocsPerOp = (ms1.Mallocs - ms0.Mallocs) / uint64(iters)
	run.BytesPerOp = (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(iters)
	run.Events = sys.HW().K.Events() - startEvents
	if run.Events > 0 {
		run.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(run.Events)
		run.EventsPerSec = float64(run.Events) / elapsed.Seconds()
	}
	return run, nil
}

// steadyFleet is the fleet rung inside BENCH_9.json: the largest board
// ladder rung, with the same serial-vs-parallel determinism proof as
// BENCH_6's rungs.
type steadyFleet struct {
	Boards                int     `json:"boards"`
	Jobs                  int     `json:"jobs"`
	Events                uint64  `json:"events"`
	AggregateEventsPerSec float64 `json:"aggregate_events_per_sec"`
	DigestsMatch          bool    `json:"digests_match"`
}

// steadyLadder is the single-board job ladder. The last two rungs are
// the bounded-memory pair: a 10x job increase that must not move peak
// heap by more than the validator's ratio.
var steadyLadder = []int{10_000, 100_000, 1_000_000}

// steadyRung is one measured ladder run.
type steadyRung struct {
	Jobs   int    `json:"jobs"`
	WallNs int64  `json:"wall_ns"`
	Events uint64 `json:"events"`
	// EventsPerSec is sustained kernel throughput; JobsPerSec the job
	// completion rate.
	EventsPerSec float64 `json:"events_per_sec"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	// AllocsPerJob / BytesPerJob are host allocation costs amortised
	// over the stream — with the pooled job records and warm runtime
	// arrays these are O(1)-ish totals divided by N, so they fall as the
	// ladder climbs.
	AllocsPerJob float64 `json:"allocs_per_job"`
	BytesPerJob  float64 `json:"bytes_per_job"`
	// PeakHeapBytes is the maximum live heap (runtime.ReadMemStats
	// HeapAlloc) sampled during the run — the bounded-memory witness.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// P99Micros carries the histogram-reported tail so the record shows
	// the metrics layer working at every scale.
	P99Micros float64 `json:"p99_micros"`
	// Digest hashes the board Report JSON (latency histogram included).
	Digest string `json:"digest"`
}

// steadyBaseline quotes the committed BENCH_8 calendar run this record
// must not regress against.
type steadyBaseline struct {
	Source               string  `json:"source"`
	CalendarAllocsPerOp  uint64  `json:"calendar_allocs_per_op"`
	CalendarEventsPerSec float64 `json:"calendar_events_per_sec"`
}

// steadyDoc is the BENCH_9.json payload.
type steadyDoc struct {
	Benchmark string `json:"benchmark"`
	HostCores int    `json:"host_cores"`
	// Board/workload knobs the ladder runs under.
	BoardRPs   int     `json:"board_rps"`
	CacheSlots int     `json:"cache_slots"`
	Load       float64 `json:"load"`
	Locality   float64 `json:"locality"`

	Ladder []steadyRung `json:"ladder"`
	// PeakHeapRatio is the last rung's peak heap over the previous
	// rung's — the bounded-memory headline (10x the jobs, ~1x the heap).
	PeakHeapRatio float64 `json:"peak_heap_ratio_largest_vs_prev"`
	// ReplayDigestsMatch reports that re-running the first rung produced
	// a byte-identical Report — histogram state and all — the record's
	// built-in determinism proof.
	ReplayDigestsMatch bool `json:"replay_digests_match"`

	// EndToEnd is the BENCH_8-shaped calendar re-measurement whose
	// allocs/op the ≤2000 ceiling gates.
	EndToEnd benchRun       `json:"end_to_end"`
	Baseline steadyBaseline `json:"baseline"`
	// EventsPerSecVsBaseline is EndToEnd.EventsPerSec over the quoted
	// BENCH_8 calendar figure (the no-regression ratio).
	EventsPerSecVsBaseline float64 `json:"events_per_sec_vs_baseline"`

	// Fleet is the >= 1M-job fleet rung with the serial-vs-parallel
	// digest proof, showing the merged-histogram path at fleet scale.
	Fleet steadyFleet `json:"fleet"`
}

// sampleHeap polls HeapAlloc until stop is closed, reporting the peak
// via the returned wait function. The sampler is host-side only — it
// never touches the simulation — so determinism is unaffected.
func sampleHeap(stop <-chan struct{}) (peak func() uint64) {
	var (
		wg  sync.WaitGroup
		max uint64
	)
	wg.Add(1)
	//lint:ignore goroutine-discipline host-side heap sampler: observes runtime.MemStats only, never touches kernel state, and is joined before results are read
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > max {
				max = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	return func() uint64 {
		wg.Wait()
		return max
	}
}

// runSteadyRung streams jobs through one fresh board and measures it.
func runSteadyRung(doc *steadyDoc, jobs int) (steadyRung, error) {
	rung := steadyRung{Jobs: jobs}
	board, err := sched.NewBoard("B0", sched.Config{
		RPs:        doc.BoardRPs,
		CacheSlots: doc.CacheSlots,
		Seed:       11,
	})
	if err != nil {
		return rung, err
	}
	stream, err := sched.Workload{
		Seed:     11,
		Jobs:     jobs,
		Load:     doc.Load,
		RPs:      doc.BoardRPs,
		Locality: doc.Locality,
	}.Stream()
	if err != nil {
		return rung, err
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stop := make(chan struct{})
	peak := sampleHeap(stop)
	start := time.Now()
	rep, err := board.RunStream(stream)
	elapsed := time.Since(start)
	close(stop)
	if err != nil {
		return rung, err
	}
	runtime.ReadMemStats(&ms1)

	rung.WallNs = elapsed.Nanoseconds()
	rung.Events = rep.KernelEvents
	if elapsed > 0 {
		rung.EventsPerSec = float64(rep.KernelEvents) / elapsed.Seconds()
		rung.JobsPerSec = float64(jobs) / elapsed.Seconds()
	}
	rung.AllocsPerJob = float64(ms1.Mallocs-ms0.Mallocs) / float64(jobs)
	rung.BytesPerJob = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(jobs)
	rung.PeakHeapBytes = peak()
	rung.P99Micros = rep.P99Micros
	rung.Digest, err = reportDigest(rep)
	return rung, err
}

// reportDigest hashes the canonical JSON of a board Report. The Report
// carries only simulation-deterministic fields (the latency histogram
// snapshot included), so equal digests mean bit-identical runs.
func reportDigest(rep *sched.Report) (string, error) {
	buf, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// loadBench8Baseline extracts the calendar-run reference figures from a
// committed BENCH_8.json.
func loadBench8Baseline(path string) (steadyBaseline, error) {
	base := steadyBaseline{Source: filepath.Base(path)}
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Data       struct {
			Runs []benchRun `json:"runs"`
		} `json:"data"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return base, fmt.Errorf("%s: %v", path, err)
	}
	if doc.Experiment != "kernel-cascade" {
		return base, fmt.Errorf("%s: experiment %q, want kernel-cascade", path, doc.Experiment)
	}
	for _, r := range doc.Data.Runs {
		if r.Queue == "calendar" {
			base.CalendarAllocsPerOp = r.AllocsPerOp
			base.CalendarEventsPerSec = r.EventsPerSec
			return base, nil
		}
	}
	return base, fmt.Errorf("%s: no calendar run", path)
}

// runSteadyJSON executes the steady-state benchmark — the streaming
// ladder, the replay determinism proof, the end-to-end calendar rung
// and the >= 1M-job fleet rung — and writes BENCH_9.json under outDir.
// ladderScale divides every ladder rung (and the fleet rung) so the
// check.sh smoke run finishes in seconds; the committed record uses 1.
func runSteadyJSON(outDir string, iters, hostCores, ladderScale int, baselinePath string) error {
	if ladderScale < 1 {
		ladderScale = 1
	}
	baseline, err := loadBench8Baseline(baselinePath)
	if err != nil {
		return err
	}
	doc := steadyDoc{
		Benchmark:  "SteadyStateStreaming",
		HostCores:  hostCores,
		BoardRPs:   2,
		CacheSlots: 8,
		Load:       0.60,
		Locality:   0.45,
		Baseline:   baseline,
	}

	// End-to-end calendar rung (BENCH_8 shape): the allocs/op ceiling
	// and the events/sec no-regression ratio both read from here. It
	// runs first, in the same near-fresh process state the committed
	// BENCH_8 figure was recorded in — after the million-job ladder the
	// process carries a large GC heap that slows this rung by over 2x,
	// which would make the no-regression comparison measure heap
	// history rather than the kernel.
	run, err := runEndToEnd(iters)
	if err != nil {
		return err
	}
	doc.EndToEnd = run
	if baseline.CalendarEventsPerSec > 0 {
		doc.EventsPerSecVsBaseline = run.EventsPerSec / baseline.CalendarEventsPerSec
	}
	fmt.Printf("end-to-end  %12d ns/op  %9d allocs/op  %11.0f events/sec  x%.2f vs %s\n",
		run.NsPerOp, run.AllocsPerOp, run.EventsPerSec, doc.EventsPerSecVsBaseline, baseline.Source)

	for _, jobs := range steadyLadder {
		jobs /= ladderScale
		if jobs < 100 {
			jobs = 100
		}
		rung, err := runSteadyRung(&doc, jobs)
		if err != nil {
			return err
		}
		doc.Ladder = append(doc.Ladder, rung)
		fmt.Printf("steady %8d jobs  %11.0f events/sec  %7.2f allocs/job  peak heap %8.2f MiB  p99 %8.1f us\n",
			rung.Jobs, rung.EventsPerSec, rung.AllocsPerJob,
			float64(rung.PeakHeapBytes)/(1<<20), rung.P99Micros)
	}
	last, prev := doc.Ladder[len(doc.Ladder)-1], doc.Ladder[len(doc.Ladder)-2]
	if prev.PeakHeapBytes > 0 {
		doc.PeakHeapRatio = float64(last.PeakHeapBytes) / float64(prev.PeakHeapBytes)
	}
	fmt.Printf("peak heap %d jobs vs %d jobs: x%.3f\n", last.Jobs, prev.Jobs, doc.PeakHeapRatio)

	// Replay the first rung: bit-identical Report (histogram included)
	// or the record is refused at write time.
	replay, err := runSteadyRung(&doc, doc.Ladder[0].Jobs)
	if err != nil {
		return err
	}
	doc.ReplayDigestsMatch = replay.Digest == doc.Ladder[0].Digest
	if !doc.ReplayDigestsMatch {
		return fmt.Errorf("steady replay of %d jobs produced a different report digest — runtime is not deterministic", doc.Ladder[0].Jobs)
	}
	fmt.Printf("replay %d jobs: digests-match=%v\n", doc.Ladder[0].Jobs, doc.ReplayDigestsMatch)

	// Fleet rung: >= 1M jobs across the widest ladder fleet, with the
	// serial-vs-parallel digest proof.
	boards := fleetBoardCounts[len(fleetBoardCounts)-1]
	fleetJobs := steadyLadder[len(steadyLadder)-1] / ladderScale / boards
	if fleetJobs < 50 {
		fleetJobs = 50
	}
	fr, err := runFleetSize(boards, fleetJobs)
	if err != nil {
		return err
	}
	if !fr.DigestsMatch {
		return fmt.Errorf("fleet of %d boards: serial and parallel per-board reports diverge", boards)
	}
	doc.Fleet = steadyFleet{
		Boards:                fr.Boards,
		Jobs:                  fr.Jobs,
		Events:                fr.Events,
		AggregateEventsPerSec: fr.EventsPerSec,
		DigestsMatch:          fr.DigestsMatch,
	}
	fmt.Printf("fleet %d boards  %8d jobs  %11.0f aggregate events/sec  digests-match=%v\n",
		fr.Boards, fr.Jobs, fr.EventsPerSec, fr.DigestsMatch)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	payload := struct {
		Experiment string    `json:"experiment"`
		Data       steadyDoc `json:"data"`
	}{Experiment: "runtime-steady", Data: doc}
	buf, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "BENCH_9.json"), append(buf, '\n'), 0o644)
}
