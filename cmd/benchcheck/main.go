// Command benchcheck validates the benchmark JSON files rvcap-bench
// produces, dispatching on the document's experiment field:
//
//   - kernel-fastpath (BENCH_5.json, recorded by the retired
//     -benchjson mode): exactly one run per event-queue implementation,
//     both having processed the same number of events.
//   - fleet-throughput (BENCH_6.json, from -fleetjson): a strictly
//     growing board-count ladder where every rung's serial and parallel
//     per-board report digests match — the fleet's parallel-determinism
//     proof (the file carries wall times, so a byte-level compare of two
//     invocations cannot gate it; the equality check lives inside one
//     invocation and this tool enforces that it held). Rungs with more
//     boards than the recording host had cores cannot show multi-core
//     scaling; those scaling assertions are downgraded to an annotated
//     skip (printed, not silently dropped). A file that does not say
//     how many cores recorded it is refused.
//   - amorphous-frag (BENCH_7.json, from -fragjson): the placement
//     sweep's headline claims — at least one module mix the fixed
//     pre-cut slots reject that amorphous placement serves with zero
//     failures, amorphous never failing more than fixed on any row,
//     and every defrag pass that moved regions having lowered the
//     external-fragmentation gauge.
//   - kernel-cascade (BENCH_8.json, recorded by the retired
//     -cascadejson mode): the second-round kernel record — queue
//     equivalence as in kernel-fastpath, a per-core events/sec
//     improvement over the BENCH_5 baseline of at least -min-ratio
//     (recomputed from the file's own numbers, and cross-checked
//     against the committed baseline when -baseline is given), and the
//     fleet aggregate floor -aggregate-floor (skipped with an
//     annotation when the recording host had fewer cores than fleet
//     boards).
//
// Documentation claims are gated too: every markdown file passed via
// -claims is scanned for benchclaim annotations of the form
//
//	<!-- benchclaim file=BENCH_5.json path=data.speedup_vs_legacy value=1.10 tol=0.10 -->
//
// and each annotated value must match the committed JSON (resolved
// relative to the markdown file) within the relative tolerance. Prose
// headline numbers next to such an annotation therefore cannot drift
// from the measurement without failing the gate.
//
// Usage:
//
//	benchcheck [-baseline BENCH_5.json] [-min-ratio 3] [-aggregate-floor 1e7] [-claims doc.md]... <BENCH_*.json>...
//
// Exits 0 when every document and claim holds, 1 with a diagnostic when
// one does not, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// payload mirrors the slices of the BENCH_5/6/7/8 schemas the gates
// care about (see cmd/rvcap-bench/benchjson.go, fleetjson.go and
// cascadejson.go for the writers). The documents share the
// experiment/data envelope; Runs carries the union of the runs' fields
// and validation dispatches on Experiment.
type payload struct {
	Experiment string `json:"experiment"`
	Data       struct {
		Benchmark string `json:"benchmark"`
		HostCores *int   `json:"host_cores"`
		Runs      []struct {
			// kernel-fastpath / kernel-cascade fields.
			Queue        string  `json:"queue"`
			Iterations   int     `json:"iterations"`
			Events       uint64  `json:"events"`
			EventsPerSec float64 `json:"events_per_sec"`
			// fleet-throughput fields (Events is shared).
			Boards          int     `json:"boards"`
			Jobs            int     `json:"jobs"`
			Digest          string  `json:"digest"`
			DigestsMatch    bool    `json:"digests_match"`
			ScaleVsOneBoard float64 `json:"scale_vs_one_board"`
			// amorphous-frag fields.
			Mix                 string  `json:"mix"`
			Policy              string  `json:"policy"`
			Requests            int     `json:"requests"`
			FixedFailed         int     `json:"fixed_failed"`
			FixedFailRate       float64 `json:"fixed_fail_rate"`
			AmorphousFailed     int     `json:"amorphous_failed"`
			AmorphousFailRate   float64 `json:"amorphous_fail_rate"`
			Defrags             int     `json:"defrags"`
			FramesMoved         int     `json:"frames_moved"`
			DefragFragBeforePct float64 `json:"defrag_frag_before_pct"`
			DefragFragAfterPct  float64 `json:"defrag_frag_after_pct"`
		} `json:"runs"`
		// kernel-cascade / runtime-steady fields.
		Baseline struct {
			Source               string  `json:"source"`
			CalendarAllocsPerOp  uint64  `json:"calendar_allocs_per_op"`
			CalendarEventsPerSec float64 `json:"calendar_events_per_sec"`
		} `json:"baseline"`
		PerCoreImprovement float64 `json:"per_core_improvement_vs_baseline"`
		Fleet              struct {
			Boards                int     `json:"boards"`
			Jobs                  int     `json:"jobs"`
			Events                uint64  `json:"events"`
			AggregateEventsPerSec float64 `json:"aggregate_events_per_sec"`
			DigestsMatch          bool    `json:"digests_match"`
		} `json:"fleet"`
		// runtime-steady fields (BENCH_9.json, from -steadyjson).
		Ladder []struct {
			Jobs          int     `json:"jobs"`
			Events        uint64  `json:"events"`
			EventsPerSec  float64 `json:"events_per_sec"`
			AllocsPerJob  float64 `json:"allocs_per_job"`
			PeakHeapBytes uint64  `json:"peak_heap_bytes"`
			P99Micros     float64 `json:"p99_micros"`
			Digest        string  `json:"digest"`
		} `json:"ladder"`
		PeakHeapRatio      float64 `json:"peak_heap_ratio_largest_vs_prev"`
		ReplayDigestsMatch bool    `json:"replay_digests_match"`
		EndToEnd           struct {
			Queue        string  `json:"queue"`
			Iterations   int     `json:"iterations"`
			AllocsPerOp  uint64  `json:"allocs_per_op"`
			Events       uint64  `json:"events"`
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"end_to_end"`
		EventsPerSecVsBaseline float64 `json:"events_per_sec_vs_baseline"`
	} `json:"data"`
}

// opts carries the gate thresholds and cross-file references.
type opts struct {
	baseline       string  // committed baseline JSON: BENCH_5 for kernel-cascade, BENCH_8 for runtime-steady
	minRatio       float64 // per-core improvement floor for kernel-cascade
	aggregateFloor float64 // fleet aggregate events/sec floor for kernel-cascade / runtime-steady
	allocsCeiling  uint64  // runtime-steady: end-to-end allocs/op ceiling
	heapRatio      float64 // runtime-steady: largest-vs-previous peak-heap ratio ceiling
	steadyMinRatio float64 // runtime-steady: events/sec floor as a ratio over the BENCH_8 baseline
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// claimsFlag collects repeated -claims markdown paths.
type claimsFlag []string

func (c *claimsFlag) String() string     { return fmt.Sprint([]string(*c)) }
func (c *claimsFlag) Set(v string) error { *c = append(*c, v); return nil }

func run(args []string) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var claims claimsFlag
	var o opts
	fs.StringVar(&o.baseline, "baseline", "",
		"committed BENCH_5.json to cross-check kernel-cascade baseline figures against")
	fs.Float64Var(&o.minRatio, "min-ratio", 3.0,
		"kernel-cascade: minimum per-core events/sec improvement over the BENCH_5 baseline")
	fs.Float64Var(&o.aggregateFloor, "aggregate-floor", 1e7,
		"kernel-cascade: minimum fleet aggregate events/sec (skipped with a note when host cores < fleet boards)")
	fs.Uint64Var(&o.allocsCeiling, "steady-allocs-ceiling", 2000,
		"runtime-steady: maximum end-to-end calendar allocs/op")
	fs.Float64Var(&o.heapRatio, "steady-heap-ratio", 1.25,
		"runtime-steady: maximum peak-heap ratio between the largest ladder rung and the one before it")
	fs.Float64Var(&o.steadyMinRatio, "steady-min-ratio", 1.0,
		"runtime-steady: minimum end-to-end events/sec as a ratio over the BENCH_8 baseline")
	fs.Var(&claims, "claims",
		"markdown file whose benchclaim annotations must match the committed JSON (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 && len(claims) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [flags] <BENCH_*.json>...")
		return 2
	}
	for _, doc := range claims {
		n, err := checkClaims(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", doc, err)
			return 1
		}
		fmt.Printf("benchcheck: %s ok (%d documented claims match their committed JSON)\n", doc, n)
	}
	for _, file := range files {
		if code := checkFile(file, &o); code != 0 {
			return code
		}
	}
	return 0
}

func checkFile(path string, o *opts) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 2
	}
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: invalid JSON: %v\n", path, err)
		return 1
	}
	if err := validate(&p, o); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		return 1
	}
	switch p.Experiment {
	case "kernel-fastpath":
		fmt.Printf("benchcheck: %s ok (%d events on both queues)\n", path, p.Data.Runs[0].Events)
	case "fleet-throughput":
		last := p.Data.Runs[len(p.Data.Runs)-1]
		fmt.Printf("benchcheck: %s ok (%d fleet sizes up to %d boards, all serial/parallel digests match)\n",
			path, len(p.Data.Runs), last.Boards)
	case "amorphous-frag":
		clean := 0
		for _, r := range p.Data.Runs {
			if r.FixedFailed > 0 && r.AmorphousFailed == 0 {
				clean++
			}
		}
		fmt.Printf("benchcheck: %s ok (%d placement rows, %d served amorphously that fixed slots reject)\n",
			path, len(p.Data.Runs), clean)
	case "kernel-cascade":
		fmt.Printf("benchcheck: %s ok (x%.2f per-core vs %s, %d events on both queues)\n",
			path, p.Data.PerCoreImprovement, p.Data.Baseline.Source, p.Data.Runs[0].Events)
	case "runtime-steady":
		last := p.Data.Ladder[len(p.Data.Ladder)-1]
		fmt.Printf("benchcheck: %s ok (%d-rung ladder to %d jobs, peak heap x%.3f, %d end-to-end allocs/op, x%.2f events/sec vs %s)\n",
			path, len(p.Data.Ladder), last.Jobs, p.Data.PeakHeapRatio,
			p.Data.EndToEnd.AllocsPerOp, p.Data.EventsPerSecVsBaseline, p.Data.Baseline.Source)
	}
	return 0
}

// validate enforces the gates' contracts on the parsed document,
// dispatching on the experiment field.
func validate(p *payload, o *opts) error {
	switch p.Experiment {
	case "kernel-fastpath":
		return validateFastpath(p)
	case "fleet-throughput":
		return validateFleet(p)
	case "amorphous-frag":
		return validateFrag(p)
	case "kernel-cascade":
		return validateCascade(p, o)
	case "runtime-steady":
		return validateSteady(p, o)
	}
	return fmt.Errorf("experiment = %q, want %q, %q, %q, %q or %q",
		p.Experiment, "kernel-fastpath", "fleet-throughput", "amorphous-frag", "kernel-cascade", "runtime-steady")
}

// validateQueuePair checks the shared kernel-benchmark contract: one
// run per queue implementation, both non-trivial, both having fired the
// exact same number of events.
func validateQueuePair(p *payload) error {
	runs := p.Data.Runs
	if len(runs) != 2 {
		return fmt.Errorf("got %d runs, want exactly 2 (legacy and calendar)", len(runs))
	}
	seen := make(map[string]int)
	for _, r := range runs {
		seen[r.Queue]++
		if r.Iterations <= 0 {
			return fmt.Errorf("queue %q ran %d iterations, want > 0", r.Queue, r.Iterations)
		}
		if r.Events == 0 {
			return fmt.Errorf("queue %q processed 0 events", r.Queue)
		}
	}
	for _, q := range []string{"legacy", "calendar"} {
		if seen[q] != 1 {
			return fmt.Errorf("queue %q appears %d times, want exactly once", q, seen[q])
		}
	}
	if a, b := runs[0], runs[1]; a.Events != b.Events {
		return fmt.Errorf("event counts diverge: %s=%d vs %s=%d — the queues did not schedule identically",
			a.Queue, a.Events, b.Queue, b.Events)
	}
	return nil
}

func validateFastpath(p *payload) error {
	return validateQueuePair(p)
}

func validateFleet(p *payload) error {
	runs := p.Data.Runs
	if len(runs) < 2 {
		return fmt.Errorf("got %d fleet sizes, want at least 2 to show scaling", len(runs))
	}
	if p.Data.HostCores == nil || *p.Data.HostCores <= 0 {
		return fmt.Errorf("document does not say how many host cores recorded it (host_cores missing or <= 0): scaling figures are uninterpretable — re-record with a current rvcap-bench")
	}
	cores := *p.Data.HostCores
	for i, r := range runs {
		if r.Boards <= 0 {
			return fmt.Errorf("run %d has %d boards, want > 0", i, r.Boards)
		}
		if i > 0 && r.Boards <= runs[i-1].Boards {
			return fmt.Errorf("board counts not strictly increasing: run %d has %d boards after %d",
				i, r.Boards, runs[i-1].Boards)
		}
		if r.Jobs <= 0 {
			return fmt.Errorf("fleet of %d boards ran %d jobs, want > 0", r.Boards, r.Jobs)
		}
		if r.Events == 0 {
			return fmt.Errorf("fleet of %d boards fired 0 kernel events", r.Boards)
		}
		if r.Digest == "" {
			return fmt.Errorf("fleet of %d boards has no report digest", r.Boards)
		}
		if !r.DigestsMatch {
			return fmt.Errorf("fleet of %d boards: serial and parallel per-board reports diverge — board runs are not deterministic",
				r.Boards)
		}
		// Weak-scaling assertion: only meaningful when the host could
		// actually run the boards in parallel.
		if r.Boards > 1 {
			if cores < r.Boards {
				fmt.Printf("benchcheck: note: skipping scaling assertion for %d boards — recorded on a %d-core host, which cannot run them in parallel\n",
					r.Boards, cores)
			} else if want := 0.5 * float64(r.Boards); r.ScaleVsOneBoard < want {
				return fmt.Errorf("fleet of %d boards scaled x%.2f vs 1 board on a %d-core host, want >= x%.1f",
					r.Boards, r.ScaleVsOneBoard, cores, want)
			}
		}
	}
	return nil
}

func validateFrag(p *payload) error {
	runs := p.Data.Runs
	if len(runs) < 2 {
		return fmt.Errorf("got %d placement rows, want at least 2 to compare mixes", len(runs))
	}
	clean := false
	for i, r := range runs {
		id := fmt.Sprintf("row %d (%s/%s)", i, r.Mix, r.Policy)
		if r.Mix == "" || r.Policy == "" {
			return fmt.Errorf("row %d has no mix/policy labels", i)
		}
		if r.Requests <= 0 {
			return fmt.Errorf("%s replayed %d requests, want > 0", id, r.Requests)
		}
		for _, rate := range []float64{r.FixedFailRate, r.AmorphousFailRate} {
			if rate < 0 || rate > 1 {
				return fmt.Errorf("%s has failure rate %v outside [0,1]", id, rate)
			}
		}
		// The paper's claim is an ordering, not just a delta: amorphous
		// placement never fails a request the fixed slots would serve.
		if r.AmorphousFailed > r.FixedFailed {
			return fmt.Errorf("%s: amorphous failed %d placements but fixed slots only %d",
				id, r.AmorphousFailed, r.FixedFailed)
		}
		if r.FixedFailed > 0 && r.AmorphousFailed == 0 {
			clean = true
		}
		// A compaction pass that moved regions must have been worth it.
		if r.Defrags > 0 && r.FramesMoved > 0 && r.DefragFragBeforePct <= r.DefragFragAfterPct {
			return fmt.Errorf("%s: defrag moved %d frames but fragmentation went %.1f%% -> %.1f%%",
				id, r.FramesMoved, r.DefragFragBeforePct, r.DefragFragAfterPct)
		}
	}
	if !clean {
		return fmt.Errorf("no row where fixed slots reject placements (fixed_failed > 0) while amorphous serves all (amorphous_failed == 0)")
	}
	return nil
}

func validateCascade(p *payload, o *opts) error {
	if err := validateQueuePair(p); err != nil {
		return err
	}
	d := &p.Data
	if d.HostCores == nil || *d.HostCores <= 0 {
		return fmt.Errorf("host_cores missing or <= 0")
	}
	if d.Baseline.CalendarEventsPerSec <= 0 {
		return fmt.Errorf("baseline calendar_events_per_sec = %v, want > 0 (baseline source %q)",
			d.Baseline.CalendarEventsPerSec, d.Baseline.Source)
	}
	var calendar float64
	for _, r := range d.Runs {
		if r.Queue == "calendar" {
			calendar = r.EventsPerSec
		}
	}
	// The stated ratio must follow from the file's own numbers...
	got := calendar / d.Baseline.CalendarEventsPerSec
	if diff := got - d.PerCoreImprovement; diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("per_core_improvement_vs_baseline = %.3f but runs/baseline give %.3f — stale or hand-edited",
			d.PerCoreImprovement, got)
	}
	// ...and clear the tentpole floor.
	if got < o.minRatio {
		return fmt.Errorf("per-core improvement x%.2f over %s is below the x%.2f floor",
			got, d.Baseline.Source, o.minRatio)
	}
	// Cross-check the quoted baseline against the committed document.
	if o.baseline != "" {
		raw, err := os.ReadFile(o.baseline)
		if err != nil {
			return fmt.Errorf("-baseline: %v", err)
		}
		var b payload
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("-baseline %s: %v", o.baseline, err)
		}
		var committed float64
		for _, r := range b.Data.Runs {
			if r.Queue == "calendar" {
				committed = r.EventsPerSec
			}
		}
		if committed <= 0 {
			return fmt.Errorf("-baseline %s has no calendar events/sec", o.baseline)
		}
		if rel := (d.Baseline.CalendarEventsPerSec - committed) / committed; rel > 1e-6 || rel < -1e-6 {
			return fmt.Errorf("baseline drift: file quotes %.0f calendar events/sec but %s holds %.0f — re-record BENCH_8 against the committed baseline",
				d.Baseline.CalendarEventsPerSec, o.baseline, committed)
		}
	}
	// Fleet aggregate rung.
	f := &d.Fleet
	if f.Boards <= 0 || f.Jobs <= 0 || f.Events == 0 {
		return fmt.Errorf("fleet rung malformed: boards=%d jobs=%d events=%d", f.Boards, f.Jobs, f.Events)
	}
	if !f.DigestsMatch {
		return fmt.Errorf("fleet of %d boards: serial and parallel per-board reports diverge", f.Boards)
	}
	if *d.HostCores < f.Boards {
		fmt.Printf("benchcheck: note: skipping the %.0f aggregate events/sec floor — %d fleet boards recorded on a %d-core host cannot aggregate across cores\n",
			o.aggregateFloor, f.Boards, *d.HostCores)
	} else if f.AggregateEventsPerSec < o.aggregateFloor {
		return fmt.Errorf("fleet aggregate %.0f events/sec on a %d-core host is below the %.0f floor",
			f.AggregateEventsPerSec, *d.HostCores, o.aggregateFloor)
	}
	return nil
}

// validateSteady gates the BENCH_9 steady-state record: a growing
// streaming ladder whose last 10x job step must not move peak heap
// (bounded memory), a replay-digest determinism proof, the end-to-end
// allocs/op ceiling, the events/sec no-regression ratio against the
// committed BENCH_8 calendar figure, and the >= 1M-job fleet rung's
// serial-vs-parallel digest match.
func validateSteady(p *payload, o *opts) error {
	d := &p.Data
	if d.HostCores == nil || *d.HostCores <= 0 {
		return fmt.Errorf("host_cores missing or <= 0")
	}
	if len(d.Ladder) < 2 {
		return fmt.Errorf("got %d ladder rungs, want at least 2 to show bounded memory", len(d.Ladder))
	}
	for i, r := range d.Ladder {
		if r.Jobs <= 0 {
			return fmt.Errorf("ladder rung %d ran %d jobs, want > 0", i, r.Jobs)
		}
		if i > 0 && r.Jobs <= d.Ladder[i-1].Jobs {
			return fmt.Errorf("ladder not strictly increasing: rung %d has %d jobs after %d",
				i, r.Jobs, d.Ladder[i-1].Jobs)
		}
		if r.Events == 0 {
			return fmt.Errorf("ladder rung of %d jobs fired 0 kernel events", r.Jobs)
		}
		if r.EventsPerSec <= 0 {
			return fmt.Errorf("ladder rung of %d jobs has events/sec %v, want > 0", r.Jobs, r.EventsPerSec)
		}
		if r.PeakHeapBytes == 0 {
			return fmt.Errorf("ladder rung of %d jobs sampled no peak heap", r.Jobs)
		}
		if r.P99Micros <= 0 {
			return fmt.Errorf("ladder rung of %d jobs reports p99 %v us — the latency histogram is not feeding the record", r.Jobs, r.P99Micros)
		}
		if r.Digest == "" {
			return fmt.Errorf("ladder rung of %d jobs has no report digest", r.Jobs)
		}
	}
	last, prev := d.Ladder[len(d.Ladder)-1], d.Ladder[len(d.Ladder)-2]
	// Amortisation must show: a 10x-longer stream cannot cost more
	// allocations per job than the shorter one (pooled records mean the
	// per-job tail is ~0 and setup amortises away).
	if last.AllocsPerJob > prev.AllocsPerJob {
		return fmt.Errorf("allocs/job grew along the ladder: %.2f at %d jobs vs %.2f at %d jobs — per-job state is not pooled",
			last.AllocsPerJob, last.Jobs, prev.AllocsPerJob, prev.Jobs)
	}
	// The stated heap ratio must follow from the rungs' own numbers...
	got := float64(last.PeakHeapBytes) / float64(prev.PeakHeapBytes)
	if diff := got - d.PeakHeapRatio; diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("peak_heap_ratio_largest_vs_prev = %.3f but the rungs give %.3f — stale or hand-edited",
			d.PeakHeapRatio, got)
	}
	// ...and clear the bounded-memory ceiling.
	if got > o.heapRatio {
		return fmt.Errorf("peak heap grew x%.3f from %d to %d jobs, ceiling x%.2f — memory is not bounded over the stream",
			got, prev.Jobs, last.Jobs, o.heapRatio)
	}
	if !d.ReplayDigestsMatch {
		return fmt.Errorf("replay of the first rung produced a different report digest — the runtime is not deterministic")
	}
	// End-to-end calendar rung: the allocs/op ceiling and the events/sec
	// no-regression ratio.
	e := &d.EndToEnd
	if e.Queue != "calendar" {
		return fmt.Errorf("end-to-end queue %q, want calendar", e.Queue)
	}
	if e.Iterations <= 0 || e.Events == 0 {
		return fmt.Errorf("end-to-end rung malformed: iterations=%d events=%d", e.Iterations, e.Events)
	}
	if e.AllocsPerOp > o.allocsCeiling {
		return fmt.Errorf("end-to-end %d allocs/op is above the %d ceiling", e.AllocsPerOp, o.allocsCeiling)
	}
	if d.Baseline.CalendarEventsPerSec <= 0 {
		return fmt.Errorf("baseline calendar_events_per_sec = %v, want > 0 (baseline source %q)",
			d.Baseline.CalendarEventsPerSec, d.Baseline.Source)
	}
	ratio := e.EventsPerSec / d.Baseline.CalendarEventsPerSec
	if diff := ratio - d.EventsPerSecVsBaseline; diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("events_per_sec_vs_baseline = %.3f but end_to_end/baseline give %.3f — stale or hand-edited",
			d.EventsPerSecVsBaseline, ratio)
	}
	if ratio < o.steadyMinRatio {
		return fmt.Errorf("end-to-end events/sec is x%.3f of the %s calendar figure, floor x%.2f — steady-state work regressed the kernel",
			ratio, d.Baseline.Source, o.steadyMinRatio)
	}
	// Cross-check the quoted baseline against the committed BENCH_8.
	if o.baseline != "" {
		raw, err := os.ReadFile(o.baseline)
		if err != nil {
			return fmt.Errorf("-baseline: %v", err)
		}
		var b payload
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("-baseline %s: %v", o.baseline, err)
		}
		var committed float64
		for _, r := range b.Data.Runs {
			if r.Queue == "calendar" {
				committed = r.EventsPerSec
			}
		}
		if committed <= 0 {
			return fmt.Errorf("-baseline %s has no calendar events/sec", o.baseline)
		}
		if rel := (d.Baseline.CalendarEventsPerSec - committed) / committed; rel > 1e-6 || rel < -1e-6 {
			return fmt.Errorf("baseline drift: file quotes %.0f calendar events/sec but %s holds %.0f — re-record BENCH_9 against the committed baseline",
				d.Baseline.CalendarEventsPerSec, o.baseline, committed)
		}
	}
	// Fleet rung: the merged-histogram path at fleet scale, with the
	// serial-vs-parallel digest proof.
	f := &d.Fleet
	if f.Boards <= 0 || f.Jobs <= 0 || f.Events == 0 {
		return fmt.Errorf("fleet rung malformed: boards=%d jobs=%d events=%d", f.Boards, f.Jobs, f.Events)
	}
	if !f.DigestsMatch {
		return fmt.Errorf("fleet of %d boards: serial and parallel per-board reports diverge", f.Boards)
	}
	if *d.HostCores < f.Boards {
		fmt.Printf("benchcheck: note: skipping the %.0f aggregate events/sec floor — %d fleet boards recorded on a %d-core host cannot aggregate across cores\n",
			o.aggregateFloor, f.Boards, *d.HostCores)
	} else if f.AggregateEventsPerSec < o.aggregateFloor {
		return fmt.Errorf("fleet aggregate %.0f events/sec on a %d-core host is below the %.0f floor",
			f.AggregateEventsPerSec, *d.HostCores, o.aggregateFloor)
	}
	return nil
}
