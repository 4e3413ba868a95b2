// Command rvcap-bench regenerates the tables and figures of the RV-CAP
// paper's evaluation on the simulated SoC.
//
// Usage:
//
//	rvcap-bench -experiment all
//	rvcap-bench -list                              # describe the experiments
//	rvcap-bench -experiment fig3 -skip-hwicap      # fast RV-CAP-only sweep
//	rvcap-bench -experiment fig3 -parallel 4       # 4 host workers (0 = all cores)
//	rvcap-bench -experiment sched -seed 7          # scheduling sweep, custom seed
//	rvcap-bench -experiment fig3 -json -outdir out # also write BENCH_fig3.json
//	rvcap-bench -fleetjson -outdir out             # fleet weak-scaling bench -> BENCH_6.json
//	rvcap-bench -fragjson -outdir out              # amorphous placement sweep -> BENCH_7.json
//	rvcap-bench -steadyjson -outdir out            # steady-state streaming bench -> BENCH_9.json
//	rvcap-bench -experiment fleet -parallel 4      # cluster sweep, boards on 4 workers
//	rvcap-bench -experiment table4 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Sweeps fan their independent scenarios (one sim.Kernel each) across
// -parallel host workers through internal/runner; rows and JSON files
// are byte-identical for every worker count. With -json, each
// experiment additionally writes a machine-readable BENCH_<name>.json
// file under -outdir alongside the formatted table on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"rvcap/internal/experiments"
)

// benchOpts carries the parsed flags into the experiment runners.
type benchOpts struct {
	skipHWICAP bool
	unroll     int
	parallel   int
	seed       int64
}

// experiment is one registry entry: the -experiment name, the one-line
// description shown by -list, and the runner returning the rows to
// print and serialize.
type experiment struct {
	Name string
	Desc string
	// Run prints the formatted result to stdout and returns the rows
	// for BENCH_<name>.json.
	Run func(o benchOpts) (interface{}, error)
}

// registry is the single source of truth for -experiment: the flag's
// help text, the -list output, the name validation and the dispatch
// order of -experiment all are all derived from it.
var registry = []experiment{
	{"table1", "resource utilization of the RV-CAP controller (Table I)", func(o benchOpts) (interface{}, error) {
		r, err := experiments.Table1()
		if err != nil {
			return nil, err
		}
		fmt.Println(r)
		return r, nil
	}},
	{"reconfig", "reconfiguration time of the filter modules", func(o benchOpts) (interface{}, error) {
		r, err := experiments.ReconfigTimes(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(r)
		return r, nil
	}},
	{"table2", "reconfiguration time vs. bitstream size (Table II)", func(o benchOpts) (interface{}, error) {
		rows, err := experiments.Table2(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatTable2(rows))
		return rows, nil
	}},
	{"table3", "controller comparison against AXI_HWICAP (Table III)", func(o benchOpts) (interface{}, error) {
		rows, err := experiments.Table3()
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatTable3(rows))
		return rows, nil
	}},
	{"table4", "filter execution time hardware vs. software (Table IV)", func(o benchOpts) (interface{}, error) {
		rows, err := experiments.Table4(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatTable4(rows))
		return rows, nil
	}},
	{"fig3", "reconfiguration time across RP sizes (Fig. 3)", func(o benchOpts) (interface{}, error) {
		points, err := experiments.Fig3(experiments.Fig3Options{
			SkipHWICAP: o.skipHWICAP,
			Unroll:     o.unroll,
			Parallel:   o.parallel,
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatFig3(points))
		return points, nil
	}},
	{"fig4", "end-to-end filter pipeline demo (Fig. 4)", func(o benchOpts) (interface{}, error) {
		r, err := experiments.Fig4()
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatFig4(r))
		return r, nil
	}},
	{"ablations", "burst/FIFO/compression/validation design ablations", func(o benchOpts) (interface{}, error) {
		bp, err := experiments.BurstAblation(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatBurstAblation(bp))
		fp, err := experiments.FIFOAblation(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatFIFOAblation(fp))
		cp, err := experiments.CompressionAblation(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatCompressionAblation(cp))
		vr, err := experiments.ValidationAblation(o.parallel)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatValidationAblation(vr))
		return struct {
			Burst       []experiments.BurstPoint       `json:"burst"`
			FIFO        []experiments.FIFOPoint        `json:"fifo"`
			Compression []experiments.CompressionPoint `json:"compression"`
			Validation  *experiments.ValidationResult  `json:"validation"`
		}{bp, fp, cp, vr}, nil
	}},
	{"sched", "DPR scheduling sweep: load x policy x partitions", func(o benchOpts) (interface{}, error) {
		points, err := experiments.Sched(experiments.SchedOptions{
			Parallel: o.parallel,
			Seed:     o.seed,
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatSched(points))
		return points, nil
	}},
	{"faults", "fault-injection sweep: fault rate x policy x partitions", func(o benchOpts) (interface{}, error) {
		points, err := experiments.Faults(experiments.FaultsOptions{
			Parallel: o.parallel,
			Seed:     o.seed,
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatFaults(points))
		return points, nil
	}},
	{"fleet", "cluster sweep: boards x load x routing policy", func(o benchOpts) (interface{}, error) {
		points, err := experiments.Fleet(experiments.FleetOptions{
			Parallel: o.parallel,
			Seed:     o.seed,
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatFleet(points))
		return points, nil
	}},
	{"amorphous", "placement sweep: fixed pre-cut slots vs frame-granular allocator (pinned seed)", func(o benchOpts) (interface{}, error) {
		points, err := experiments.Amorphous(experiments.AmorphousOptions{
			Parallel: o.parallel,
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.FormatAmorphous(points))
		return points, nil
	}},
}

// experimentNames returns the registry names in dispatch order.
func experimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

func main() {
	exp := flag.String("experiment", "all",
		"which experiment to run: "+strings.Join(experimentNames(), ", ")+", or all")
	list := flag.Bool("list", false, "list the experiments and exit")
	skipHWICAP := flag.Bool("skip-hwicap", false,
		"omit the slow CPU-driven HWICAP series from fig3")
	unroll := flag.Int("unroll", 16, "HWICAP store-loop unroll factor for fig3")
	parallel := flag.Int("parallel", 0,
		"host workers for the experiment sweeps (0 = all cores, 1 = serial)")
	seed := flag.Int64("seed", 1, "base workload seed for the sched/faults sweeps")
	jsonOut := flag.Bool("json", false,
		"also write machine-readable BENCH_<experiment>.json files to -outdir")
	outDir := flag.String("outdir", ".", "directory for -json output files")
	benchIters := flag.Int("benchiters", 3, "end-to-end swap+compute iterations for -steadyjson")
	fleetJSON := flag.Bool("fleetjson", false,
		"run the fleet weak-scaling benchmark (board ladder, serial vs parallel digests) and write BENCH_6.json to -outdir instead of running experiments")
	fleetJobs := flag.Int("fleetjobs", 600, "jobs per board for -fleetjson")
	steadyJSON := flag.Bool("steadyjson", false,
		"run the steady-state streaming benchmark (single-board job ladder + end-to-end + >=1M-job fleet rung, vs the committed BENCH_8 baseline) and write BENCH_9.json to -outdir instead of running experiments")
	steadyBase := flag.String("steadybaseline", "BENCH_8.json",
		"committed kernel-cascade baseline for -steadyjson")
	steadyScale := flag.Int("steadyscale", 1,
		"divide every -steadyjson ladder rung by this factor (smoke runs; the committed record uses 1)")
	fragJSON := flag.Bool("fragjson", false,
		"run the amorphous placement sweep (fixed pre-cut slots vs frame-granular allocator) and write BENCH_7.json to -outdir instead of running experiments")
	fragReqs := flag.Int("fragreqs", 0, "requests per cell for -fragjson (0 = sweep default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rvcap-bench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rvcap-bench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *fleetJSON {
		if err := runFleetJSON(*outDir, *fleetJobs, runtime.NumCPU()); err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: -fleetjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *steadyJSON {
		if err := runSteadyJSON(*outDir, *benchIters, runtime.NumCPU(), *steadyScale, *steadyBase); err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: -steadyjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *fragJSON {
		if err := runFragJSON(*outDir, *fragReqs, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: -fragjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Validate before any work: an unknown experiment must fail fast,
	// not after minutes of sweeping.
	known := *exp == "all"
	for _, e := range registry {
		if *exp == e.Name {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "rvcap-bench: unknown experiment %q (try -list)\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	// writeJSON emits one experiment's rows as BENCH_<name>.json. The
	// content depends only on the rows — never on -parallel — so runs
	// with different worker counts diff byte-for-byte (check.sh gates
	// on that).
	writeJSON := func(name string, data interface{}) error {
		if !*jsonOut {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		doc := struct {
			Experiment string      `json:"experiment"`
			Data       interface{} `json:"data"`
		}{Experiment: name, Data: data}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, "BENCH_"+name+".json"), append(buf, '\n'), 0o644)
	}

	opts := benchOpts{
		skipHWICAP: *skipHWICAP,
		unroll:     *unroll,
		parallel:   *parallel,
		seed:       *seed,
	}
	for _, e := range registry {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		data, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if err := writeJSON(e.Name, data); err != nil {
			fmt.Fprintf(os.Stderr, "rvcap-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
