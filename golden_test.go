package rvcap

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"rvcap/internal/cluster"
	"rvcap/internal/experiments"
	"rvcap/internal/sched"
)

// goldenPath holds the committed digests TestGoldenArtifacts checks.
const goldenPath = "testdata/golden_artifacts.txt"

// renderEquivalenceArtifacts regenerates every paper artifact the repo
// produces — Table 1/2/4, the Fig. 3 sweep (RV-CAP and AXI_HWICAP
// series), the scheduling sweep, the faults sweep, the amorphous
// placement sweep — plus the full VCD trace and filtered image of the
// determinism scenario, the Report of a streamed steady-state board and
// the Result of an eight-board fleet. It returns one
// golden line value per artifact keyed by name: the SHA-256 of the
// artifact's bytes, and for "events" the kernel event count of the
// traced scenario.
func renderEquivalenceArtifacts(t *testing.T) map[string]string {
	t.Helper()
	raw := make(map[string][]byte)

	t1, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	raw["table1"] = []byte(t1.String())

	t2, err := experiments.Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	raw["table2"] = []byte(experiments.FormatTable2(t2))

	t4, err := experiments.Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	raw["table4"] = []byte(experiments.FormatTable4(t4))

	fig3, err := experiments.Fig3(experiments.Fig3Options{Unroll: 16, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw["fig3"] = []byte(experiments.FormatFig3(fig3))

	sched, err := experiments.Sched(experiments.SchedOptions{Parallel: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw["sched"] = []byte(experiments.FormatSched(sched))

	faults, err := experiments.Faults(experiments.FaultsOptions{Parallel: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw["faults"] = []byte(experiments.FormatFaults(faults))

	amorphous, err := experiments.Amorphous(experiments.AmorphousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw["amorphous"] = []byte(experiments.FormatAmorphous(amorphous))

	raw["steady"] = renderSteadyStream(t)
	raw["fleet"] = renderFleet(t)

	var events uint64
	raw["vcd"], raw["image"], events = runTracedScenario(t)

	out := map[string]string{"events": fmt.Sprint(events)}
	for name, b := range raw {
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// renderSteadyStream returns the JSON Report of a 1,000-job stream
// through the steady-state board (two fixed partitions, eight cache
// slots, 60% load, 45% module locality), recycled records and all.
func renderSteadyStream(t *testing.T) []byte {
	t.Helper()
	board, err := sched.NewBoard("B0", sched.Config{RPs: 2, CacheSlots: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sched.Workload{Seed: 11, Jobs: 1000, Load: 0.60, RPs: 2, Locality: 0.45}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := board.RunStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// renderFleet returns the JSON Result of an eight-board least-loaded
// fleet (16 tenants, 125 jobs per board at 85% load) with the boards
// run serially, after checking that fanning them across every host core
// gives the byte-identical Result.
func renderFleet(t *testing.T) []byte {
	t.Helper()
	cfg := cluster.Config{
		Seed:    11,
		Boards:  8,
		Policy:  cluster.LeastLoaded,
		Tenants: 16,
		Jobs:    125 * 8,
		Load:    0.85,
		Board:   sched.Config{RPs: 2, CacheSlots: 4},
	}
	var out [2][]byte
	for i, workers := range []int{1, 0} {
		cfg.Workers = workers
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if string(out[0]) != string(out[1]) {
		t.Errorf("fleet Result with Workers: 0 differs from Workers: 1 — board runs depend on the host worker count")
	}
	return out[0]
}

// readGolden parses the committed "name value" lines, skipping blank
// lines and # comments.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = strings.TrimSpace(value)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenArtifacts is the cycle-exactness gate: every regenerated
// table, figure, sweep, trace and image must hash to the digest
// committed in testdata/golden_artifacts.txt, and the traced scenario
// must fire exactly the committed number of kernel events. A single
// displaced event anywhere in millions of cycles changes a digest, and
// because the reference is committed, drift is caught across changes,
// not only between two implementations that could drift together. A
// change that alters simulated behaviour on purpose updates the file
// from the lines this test prints.
func TestGoldenArtifacts(t *testing.T) {
	got := renderEquivalenceArtifacts(t)
	want := readGolden(t)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no committed golden value", name)
		case w != got[name]:
			t.Errorf("%s = %s, golden %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden value for an artifact no longer rendered", name)
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		t.Logf("rendered values:\n%s", b.String())
	}
}
