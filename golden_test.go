package rvcap

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"rvcap/internal/experiments"
)

// goldenPath holds the committed digests TestGoldenArtifacts checks.
const goldenPath = "testdata/golden_artifacts.txt"

// renderEquivalenceArtifacts regenerates every paper artifact the repo
// produces — Table 1/2/4, the Fig. 3 sweep (RV-CAP and AXI_HWICAP
// series), the scheduling sweep, the faults sweep — plus the full VCD
// trace and filtered image of the determinism scenario. It returns one
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

	var events uint64
	raw["vcd"], raw["image"], events = runTracedScenario(t)

	out := map[string]string{"events": fmt.Sprint(events)}
	for name, b := range raw {
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
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
