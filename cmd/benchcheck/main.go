// Command benchcheck validates the committed benchmark records,
// dispatching on the document's experiment field:
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
//   - kernel-cascade (BENCH_8.json, recorded by the retired
//     -cascadejson mode): the second-round kernel record — queue
//     equivalence as in kernel-fastpath, a per-core events/sec
//     improvement of at least x3 over its baseline, and the fleet
//     aggregate floor (skipped with an annotation when the recording
//     host had fewer cores than fleet boards).
//   - runtime-steady (BENCH_9.json, recorded by the retired
//     steady-state mode): the streaming ladder's bounded-memory and
//     allocation gates, the replay-digest proof, the end-to-end
//     allocs/op ceiling and events/sec ratio over its baseline, and the
//     fleet rung as in kernel-cascade.
//
// A record that quotes a baseline names it in data.baseline.source;
// the named file is resolved relative to the record and the quoted
// calendar events/sec must match it, so a record cannot be re-based
// silently.
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
//	benchcheck [-claims doc.md]... [BENCH_*.json]...
//
// Exits 0 when every document and claim holds, 1 with a diagnostic when
// one does not, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// The gates' thresholds. They are the values every committed record was
// held to; a record is never re-validated against looser ones.
const (
	cascadeMinRatio     = 3.0  // kernel-cascade: per-core events/sec improvement floor over its baseline
	aggregateFloor      = 1e7  // fleet rung: aggregate events/sec floor on a host with a core per board
	steadyAllocsCeiling = 2000 // runtime-steady: end-to-end allocs/op ceiling
	steadyHeapRatio     = 1.25 // runtime-steady: largest-vs-previous rung peak-heap ceiling
	steadyMinRatio      = 1.0  // runtime-steady: end-to-end events/sec floor over its baseline
)

// payload mirrors the slices of the BENCH_5/6/8/9 schemas the gates
// care about (cmd/rvcap-bench/fleetjson.go still writes BENCH_6; the
// other three were written by retired modes and stay committed as
// history). The documents share the experiment/data envelope; Runs
// carries the union of the runs' fields and validation dispatches on
// Experiment.
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
		// runtime-steady fields (BENCH_9.json).
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
	fs.Var(&claims, "claims",
		"markdown file whose benchclaim annotations must match the committed JSON (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 && len(claims) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-claims doc.md]... [BENCH_*.json]...")
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
		if code := checkFile(file); code != 0 {
			return code
		}
	}
	return 0
}

func checkFile(path string) int {
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
	if err := validate(&p, filepath.Dir(path)); err != nil {
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
// dispatching on the experiment field. dir is the record's directory,
// against which a quoted baseline source is resolved.
func validate(p *payload, dir string) error {
	switch p.Experiment {
	case "kernel-fastpath":
		return validateQueuePair(p)
	case "fleet-throughput":
		return validateFleet(p)
	case "kernel-cascade":
		return validateCascade(p, dir)
	case "runtime-steady":
		return validateSteady(p, dir)
	}
	return fmt.Errorf("experiment = %q, want %q, %q, %q or %q",
		p.Experiment, "kernel-fastpath", "fleet-throughput", "kernel-cascade", "runtime-steady")
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

func validateCascade(p *payload, dir string) error {
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
	if got < cascadeMinRatio {
		return fmt.Errorf("per-core improvement x%.2f over %s is below the x%.2f floor",
			got, d.Baseline.Source, cascadeMinRatio)
	}
	if err := checkBaseline(p, dir); err != nil {
		return err
	}
	return checkFleetRung(p)
}

// validateSteady gates the BENCH_9 steady-state record: a growing
// streaming ladder whose last 10x job step must not move peak heap
// (bounded memory), a replay-digest determinism proof, the end-to-end
// allocs/op ceiling, the events/sec no-regression ratio against the
// committed BENCH_8 calendar figure, and the fleet rung.
func validateSteady(p *payload, dir string) error {
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
	if got > steadyHeapRatio {
		return fmt.Errorf("peak heap grew x%.3f from %d to %d jobs, ceiling x%.2f — memory is not bounded over the stream",
			got, prev.Jobs, last.Jobs, steadyHeapRatio)
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
	if e.AllocsPerOp > steadyAllocsCeiling {
		return fmt.Errorf("end-to-end %d allocs/op is above the %d ceiling", e.AllocsPerOp, steadyAllocsCeiling)
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
	if ratio < steadyMinRatio {
		return fmt.Errorf("end-to-end events/sec is x%.3f of the %s calendar figure, floor x%.2f — steady-state work regressed the kernel",
			ratio, d.Baseline.Source, steadyMinRatio)
	}
	if err := checkBaseline(p, dir); err != nil {
		return err
	}
	return checkFleetRung(p)
}

// checkBaseline cross-checks the calendar events/sec a record quotes
// against the committed record its data.baseline.source names, resolved
// relative to dir.
func checkBaseline(p *payload, dir string) error {
	quoted := p.Data.Baseline
	if quoted.Source == "" {
		return fmt.Errorf("baseline source missing")
	}
	path := filepath.Join(dir, quoted.Source)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %v", err)
	}
	var b payload
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("baseline %s: %v", quoted.Source, err)
	}
	var committed float64
	for _, r := range b.Data.Runs {
		if r.Queue == "calendar" {
			committed = r.EventsPerSec
		}
	}
	if committed <= 0 {
		return fmt.Errorf("baseline %s has no calendar events/sec", quoted.Source)
	}
	if rel := (quoted.CalendarEventsPerSec - committed) / committed; rel > 1e-6 || rel < -1e-6 {
		return fmt.Errorf("baseline drift: file quotes %.0f calendar events/sec but %s holds %.0f — re-record against the committed baseline",
			quoted.CalendarEventsPerSec, quoted.Source, committed)
	}
	return nil
}

// checkFleetRung gates a record's fleet rung: a well-formed run whose
// serial and parallel per-board reports matched, and the aggregate
// events/sec floor when the recording host had a core per board.
func checkFleetRung(p *payload) error {
	f, cores := &p.Data.Fleet, *p.Data.HostCores
	if f.Boards <= 0 || f.Jobs <= 0 || f.Events == 0 {
		return fmt.Errorf("fleet rung malformed: boards=%d jobs=%d events=%d", f.Boards, f.Jobs, f.Events)
	}
	if !f.DigestsMatch {
		return fmt.Errorf("fleet of %d boards: serial and parallel per-board reports diverge", f.Boards)
	}
	if cores < f.Boards {
		fmt.Printf("benchcheck: note: skipping the %.0f aggregate events/sec floor — %d fleet boards recorded on a %d-core host cannot aggregate across cores\n",
			aggregateFloor, f.Boards, cores)
	} else if f.AggregateEventsPerSec < aggregateFloor {
		return fmt.Errorf("fleet aggregate %.0f events/sec on a %d-core host is below the %.0f floor",
			f.AggregateEventsPerSec, cores, aggregateFloor)
	}
	return nil
}
