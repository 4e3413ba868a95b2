package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselineDir lays out the baseline records the cascade and steady
// fixtures below quote (BENCH_5.json at 1.2M calendar events/sec,
// BENCH_8.json at 4.08M) and returns their directory.
func baselineDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, eps := range map[string]string{"BENCH_5.json": "1200000", "BENCH_8.json": "4080000"} {
		src := `{"data":{"runs":[{"queue":"legacy","events_per_sec":1},{"queue":"calendar","events_per_sec":` + eps + `}]}}`
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// doc builds a payload from a JSON literal, failing the test on bad
// syntax so the cases below stay honest about what the parser sees.
func doc(t *testing.T, src string) *payload {
	t.Helper()
	var p payload
	if err := json.Unmarshal([]byte(src), &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

const goodDoc = `{
  "experiment": "kernel-fastpath",
  "data": {
    "benchmark": "BenchmarkKernelFastpath",
    "runs": [
      {"queue": "legacy", "iterations": 3, "events": 120934},
      {"queue": "calendar", "iterations": 3, "events": 120934}
    ]
  }
}`

func TestValidateGood(t *testing.T) {
	if err := validate(doc(t, goodDoc), baselineDir(t)); err != nil {
		t.Fatalf("validate(good) = %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"unknown experiment",
			strings.Replace(goodDoc, "kernel-fastpath", "fig3", 1),
			"experiment",
		},
		{
			"diverging event counts",
			strings.Replace(goodDoc, `"calendar", "iterations": 3, "events": 120934`,
				`"calendar", "iterations": 3, "events": 120935`, 1),
			"diverge",
		},
		{
			"missing run",
			`{"experiment":"kernel-fastpath","data":{"runs":[
				{"queue":"legacy","iterations":1,"events":5}]}}`,
			"want exactly 2",
		},
		{
			"duplicate queue",
			`{"experiment":"kernel-fastpath","data":{"runs":[
				{"queue":"legacy","iterations":1,"events":5},
				{"queue":"legacy","iterations":1,"events":5}]}}`,
			"appears",
		},
		{
			"zero iterations",
			strings.Replace(goodDoc, `"legacy", "iterations": 3`, `"legacy", "iterations": 0`, 1),
			"iterations",
		},
		{
			"zero events",
			strings.Replace(goodDoc, `"legacy", "iterations": 3, "events": 120934`,
				`"legacy", "iterations": 3, "events": 0`, 1),
			"0 events",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(doc(t, tc.src), baselineDir(t))
			if err == nil {
				t.Fatal("validate accepted a bad document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

const goodFleetDoc = `{
  "experiment": "fleet-throughput",
  "data": {
    "benchmark": "FleetWeakScaling",
    "host_cores": 4,
    "runs": [
      {"boards": 1, "jobs": 600, "events": 610000, "digest": "aa11", "digests_match": true},
      {"boards": 2, "jobs": 1200, "events": 1220000, "digest": "bb22", "digests_match": true, "scale_vs_one_board": 1.7},
      {"boards": 4, "jobs": 2400, "events": 2440000, "digest": "cc33", "digests_match": true, "scale_vs_one_board": 3.1}
    ]
  }
}`

func TestValidateFleetGood(t *testing.T) {
	if err := validate(doc(t, goodFleetDoc), baselineDir(t)); err != nil {
		t.Fatalf("validate(good fleet) = %v", err)
	}
}

func TestValidateFleetRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"diverging digests",
			strings.Replace(goodFleetDoc, `"digest": "bb22", "digests_match": true`,
				`"digest": "bb22", "digests_match": false`, 1),
			"not deterministic",
		},
		{
			"non-increasing board counts",
			strings.Replace(goodFleetDoc, `"boards": 4`, `"boards": 2`, 1),
			"strictly increasing",
		},
		{
			"zero events",
			strings.Replace(goodFleetDoc, `"events": 1220000`, `"events": 0`, 1),
			"0 kernel events",
		},
		{
			"missing digest",
			strings.Replace(goodFleetDoc, `"digest": "cc33", `, ``, 1),
			"no report digest",
		},
		{
			"single fleet size",
			`{"experiment":"fleet-throughput","data":{"host_cores":4,"runs":[
				{"boards":1,"jobs":600,"events":5,"digest":"aa","digests_match":true}]}}`,
			"at least 2",
		},
		{
			"missing host cores",
			strings.Replace(goodFleetDoc, `"host_cores": 4,`, ``, 1),
			"host_cores missing",
		},
		{
			"poor scaling on a capable host",
			strings.Replace(goodFleetDoc, `"scale_vs_one_board": 3.1`, `"scale_vs_one_board": 1.2`, 1),
			"want >=",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(doc(t, tc.src), baselineDir(t))
			if err == nil {
				t.Fatal("validate accepted a bad fleet document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// A fleet recorded on a host with fewer cores than boards cannot show
// multi-core scaling; those assertions are downgraded to an annotated
// skip rather than failing the document.
func TestValidateFleetCoreStarvedSkipsScaling(t *testing.T) {
	src := strings.Replace(goodFleetDoc, `"host_cores": 4`, `"host_cores": 1`, 1)
	src = strings.Replace(src, `"scale_vs_one_board": 1.7`, `"scale_vs_one_board": 0.9`, 1)
	src = strings.Replace(src, `"scale_vs_one_board": 3.1`, `"scale_vs_one_board": 1.0`, 1)
	if err := validate(doc(t, src), baselineDir(t)); err != nil {
		t.Fatalf("validate(1-core fleet) = %v, want annotated skip", err)
	}
}

const goodCascadeDoc = `{
  "experiment": "kernel-cascade",
  "data": {
    "benchmark": "EndToEndSwapAndCompute",
    "host_cores": 16,
    "runs": [
      {"queue": "legacy", "iterations": 5, "events": 223429, "events_per_sec": 3100000},
      {"queue": "calendar", "iterations": 5, "events": 223429, "events_per_sec": 4200000}
    ],
    "baseline": {"source": "BENCH_5.json", "calendar_events_per_sec": 1200000},
    "per_core_improvement_vs_baseline": 3.5,
    "fleet": {"boards": 8, "jobs": 4800, "events": 4880000,
              "aggregate_events_per_sec": 12000000, "digests_match": true}
  }
}`

func TestValidateCascadeGood(t *testing.T) {
	if err := validate(doc(t, goodCascadeDoc), baselineDir(t)); err != nil {
		t.Fatalf("validate(good cascade) = %v", err)
	}
}

// A cascade recorded on a core-starved host skips the aggregate floor
// with an annotation but still enforces the per-core ratio.
func TestValidateCascadeCoreStarvedSkipsAggregate(t *testing.T) {
	src := strings.Replace(goodCascadeDoc, `"host_cores": 16`, `"host_cores": 1`, 1)
	src = strings.Replace(src, `"aggregate_events_per_sec": 12000000`, `"aggregate_events_per_sec": 900000`, 1)
	if err := validate(doc(t, src), baselineDir(t)); err != nil {
		t.Fatalf("validate(1-core cascade) = %v, want annotated aggregate skip", err)
	}
}

func TestValidateCascadeRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"ratio below floor",
			strings.Replace(strings.Replace(goodCascadeDoc,
				`"events_per_sec": 4200000`, `"events_per_sec": 2400000`, 1),
				`"per_core_improvement_vs_baseline": 3.5`, `"per_core_improvement_vs_baseline": 2`, 1),
			"below the x3.00 floor",
		},
		{
			"stale stated ratio",
			strings.Replace(goodCascadeDoc,
				`"per_core_improvement_vs_baseline": 3.5`, `"per_core_improvement_vs_baseline": 6.6`, 1),
			"stale or hand-edited",
		},
		{
			"missing host cores",
			strings.Replace(goodCascadeDoc, `"host_cores": 16,`, ``, 1),
			"host_cores",
		},
		{
			"missing baseline",
			strings.Replace(goodCascadeDoc,
				`"baseline": {"source": "BENCH_5.json", "calendar_events_per_sec": 1200000},`, ``, 1),
			"baseline",
		},
		{
			"fleet digests diverge",
			strings.Replace(goodCascadeDoc, `"digests_match": true`, `"digests_match": false`, 1),
			"diverge",
		},
		{
			"aggregate below floor on a capable host",
			strings.Replace(strings.Replace(goodCascadeDoc,
				`"aggregate_events_per_sec": 12000000`, `"aggregate_events_per_sec": 900000`, 1),
				`"per_core_improvement_vs_baseline": 3.5`, `"per_core_improvement_vs_baseline": 3.5`, 1),
			"below the 10000000 floor",
		},
		{
			"diverging event counts",
			strings.Replace(goodCascadeDoc, `"calendar", "iterations": 5, "events": 223429`,
				`"calendar", "iterations": 5, "events": 223430`, 1),
			"diverge",
		},
		{
			"baseline drift",
			strings.Replace(strings.Replace(goodCascadeDoc,
				`"calendar_events_per_sec": 1200000`, `"calendar_events_per_sec": 1300000`, 1),
				`"per_core_improvement_vs_baseline": 3.5`, `"per_core_improvement_vs_baseline": 3.23`, 1),
			"baseline drift",
		},
		{
			"baseline source not committed",
			strings.Replace(goodCascadeDoc, `"source": "BENCH_5.json"`, `"source": "BENCH_4.json"`, 1),
			"BENCH_4.json",
		},
		{
			"baseline source missing",
			strings.Replace(goodCascadeDoc, `"source": "BENCH_5.json", `, ``, 1),
			"baseline source missing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(doc(t, tc.src), baselineDir(t))
			if err == nil {
				t.Fatal("validate accepted a bad cascade document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

const goodSteadyDoc = `{
  "experiment": "runtime-steady",
  "data": {
    "benchmark": "SteadyStateStreaming",
    "host_cores": 1,
    "ladder": [
      {"jobs": 100000, "events": 48000000, "events_per_sec": 5500000,
       "allocs_per_job": 4.1, "peak_heap_bytes": 120000000,
       "p99_micros": 5242, "digest": "aaa"},
      {"jobs": 1000000, "events": 480000000, "events_per_sec": 6000000,
       "allocs_per_job": 0.5, "peak_heap_bytes": 126000000,
       "p99_micros": 5242, "digest": "bbb"}
    ],
    "peak_heap_ratio_largest_vs_prev": 1.05,
    "replay_digests_match": true,
    "end_to_end": {"queue": "calendar", "iterations": 3, "allocs_per_op": 1675,
                   "events": 223429, "events_per_sec": 4110000},
    "baseline": {"source": "BENCH_8.json", "calendar_events_per_sec": 4080000},
    "events_per_sec_vs_baseline": 1.007,
    "fleet": {"boards": 8, "jobs": 1000000, "events": 480000000,
              "aggregate_events_per_sec": 5200000, "digests_match": true}
  }
}`

func TestValidateSteadyGood(t *testing.T) {
	if err := validate(doc(t, goodSteadyDoc), baselineDir(t)); err != nil {
		t.Fatalf("validate(good steady) = %v", err)
	}
}

func TestValidateSteadyRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"heap ratio above ceiling",
			strings.Replace(strings.Replace(goodSteadyDoc,
				`"peak_heap_bytes": 126000000`, `"peak_heap_bytes": 240000000`, 1),
				`"peak_heap_ratio_largest_vs_prev": 1.05`, `"peak_heap_ratio_largest_vs_prev": 2.0`, 1),
			"memory is not bounded",
		},
		{
			"stale stated heap ratio",
			strings.Replace(goodSteadyDoc,
				`"peak_heap_ratio_largest_vs_prev": 1.05`, `"peak_heap_ratio_largest_vs_prev": 1.2`, 1),
			"stale or hand-edited",
		},
		{
			"allocs/job growing along the ladder",
			strings.Replace(goodSteadyDoc, `"allocs_per_job": 0.5`, `"allocs_per_job": 9.9`, 1),
			"not pooled",
		},
		{
			"replay digests diverge",
			strings.Replace(goodSteadyDoc, `"replay_digests_match": true`, `"replay_digests_match": false`, 1),
			"not deterministic",
		},
		{
			"allocs/op above ceiling",
			strings.Replace(goodSteadyDoc, `"allocs_per_op": 1675`, `"allocs_per_op": 2390`, 1),
			"above the 2000 ceiling",
		},
		{
			"events/sec regression",
			strings.Replace(strings.Replace(goodSteadyDoc,
				`"events_per_sec": 4110000`, `"events_per_sec": 3000000`, 2),
				`"events_per_sec_vs_baseline": 1.007`, `"events_per_sec_vs_baseline": 0.735`, 1),
			"regressed the kernel",
		},
		{
			"stale stated baseline ratio",
			strings.Replace(goodSteadyDoc,
				`"events_per_sec_vs_baseline": 1.007`, `"events_per_sec_vs_baseline": 1.4`, 1),
			"stale or hand-edited",
		},
		{
			"ladder too short",
			strings.Replace(goodSteadyDoc,
				`{"jobs": 100000, "events": 48000000, "events_per_sec": 5500000,
       "allocs_per_job": 4.1, "peak_heap_bytes": 120000000,
       "p99_micros": 5242, "digest": "aaa"},`, ``, 1),
			"at least 2",
		},
		{
			"ladder not increasing",
			strings.Replace(goodSteadyDoc, `"jobs": 1000000, "events": 480000000, "events_per_sec": 6000000`,
				`"jobs": 100000, "events": 480000000, "events_per_sec": 6000000`, 1),
			"strictly increasing",
		},
		{
			"histogram not feeding the record",
			strings.Replace(goodSteadyDoc, `"p99_micros": 5242, "digest": "bbb"`,
				`"p99_micros": 0, "digest": "bbb"`, 1),
			"histogram",
		},
		{
			"missing host cores",
			strings.Replace(goodSteadyDoc, `"host_cores": 1,`, ``, 1),
			"host_cores",
		},
		{
			"wrong end-to-end queue",
			strings.Replace(goodSteadyDoc, `"queue": "calendar"`, `"queue": "legacy"`, 1),
			"want calendar",
		},
		{
			"baseline drift",
			strings.Replace(strings.Replace(goodSteadyDoc,
				`"calendar_events_per_sec": 4080000`, `"calendar_events_per_sec": 4000000`, 1),
				`"events_per_sec_vs_baseline": 1.007`, `"events_per_sec_vs_baseline": 1.0275`, 1),
			"baseline drift",
		},
		{
			"fleet digests diverge",
			strings.Replace(goodSteadyDoc,
				`"aggregate_events_per_sec": 5200000, "digests_match": true`,
				`"aggregate_events_per_sec": 5200000, "digests_match": false`, 1),
			"diverge",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(doc(t, tc.src), baselineDir(t))
			if err == nil {
				t.Fatal("validate accepted a bad steady document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// Every committed record passes its validator, baseline cross-checks
// included.
func TestCommittedRecords(t *testing.T) {
	for _, name := range []string{"BENCH_5.json", "BENCH_6.json", "BENCH_8.json", "BENCH_9.json"} {
		if code := checkFile(filepath.Join("..", "..", name)); code != 0 {
			t.Errorf("checkFile(%s) = %d, want 0", name, code)
		}
	}
}
