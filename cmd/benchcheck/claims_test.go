package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeClaimFixture lays out a markdown file plus the benchmark JSON it
// annotates in a temp dir and returns the markdown path.
func writeClaimFixture(t *testing.T, md, jsonBody string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH.json"), []byte(jsonBody), 0o644); err != nil {
		t.Fatal(err)
	}
	mdPath := filepath.Join(dir, "README.md")
	if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	return mdPath
}

const claimJSON = `{
  "experiment": "kernel-fastpath",
  "data": {
    "speedup_vs_legacy": 1.095,
    "runs": [
      {"queue": "legacy", "events_per_sec": 1104072.96},
      {"queue": "calendar", "events_per_sec": 1209020.53}
    ]
  }
}`

func TestCheckClaimsGood(t *testing.T) {
	md := "The swap is about 1.10x faster\n" +
		"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=1.10 tol=0.02 -->\n" +
		"at ~1.21M events/sec.\n" +
		"<!-- benchclaim file=BENCH.json path=data.runs.1.events_per_sec value=1209020 tol=0.001 -->\n"
	n, err := checkClaims(writeClaimFixture(t, md, claimJSON))
	if err != nil {
		t.Fatalf("checkClaims = %v", err)
	}
	if n != 2 {
		t.Fatalf("checked %d claims, want 2", n)
	}
}

func TestCheckClaimsNoAnnotationsPassesVacuously(t *testing.T) {
	n, err := checkClaims(writeClaimFixture(t, "plain prose, no annotations\n", claimJSON))
	if err != nil || n != 0 {
		t.Fatalf("checkClaims = (%d, %v), want (0, nil)", n, err)
	}
}

func TestCheckClaimsRejections(t *testing.T) {
	cases := []struct {
		name, md, wantErr string
	}{
		{
			"drifted headline",
			"about 6.6x faster\n<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=6.6 tol=0.10 -->\n",
			"drifted",
		},
		{
			"missing json key",
			"<!-- benchclaim file=BENCH.json path=data.no_such_field value=1 -->\n",
			"no key",
		},
		{
			"missing json file",
			"<!-- benchclaim file=GONE.json path=data.speedup_vs_legacy value=1.1 -->\n",
			"GONE.json",
		},
		{
			"bad array index",
			"<!-- benchclaim file=BENCH.json path=data.runs.7.events_per_sec value=1 -->\n",
			"does not index",
		},
		{
			"non-numeric target",
			"<!-- benchclaim file=BENCH.json path=data.runs.0.queue value=1 -->\n",
			"want a number",
		},
		{
			"malformed annotation",
			"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy -->\n",
			"needs file=, path= and value=",
		},
		{
			"NaN value",
			"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=NaN -->\n",
			"must be finite",
		},
		{
			"NaN tol",
			"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=6.6 tol=NaN -->\n",
			"finite non-negative",
		},
		{
			"infinite tol",
			"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=6.6 tol=Inf -->\n",
			"finite non-negative",
		},
		{
			"unterminated annotation",
			"<!-- benchclaim file=BENCH.json path=data.speedup_vs_legacy value=1.1\n",
			"unterminated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkClaims(writeClaimFixture(t, tc.md, claimJSON))
			if err == nil {
				t.Fatal("checkClaims accepted a bad document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzParseClaim feeds arbitrary annotation bodies to the parser. The
// committed corpus (testdata/fuzz/FuzzParseClaim) holds the bodies of
// the README and DESIGN annotations plus non-finite value and tol
// cases. parseClaim must never panic, and every claim it accepts must
// name a file and a path, carry a finite value and a finite tol >= 0,
// and verify against its own value.
func FuzzParseClaim(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		c, err := parseClaim(body)
		if err != nil {
			return
		}
		if c.file == "" || c.path == "" {
			t.Fatalf("parseClaim(%q) accepted a claim without file or path: %+v", body, c)
		}
		if math.IsNaN(c.value) || math.IsInf(c.value, 0) {
			t.Fatalf("parseClaim(%q) accepted non-finite value %v", body, c.value)
		}
		if !(c.tol >= 0) || math.IsInf(c.tol, 0) {
			t.Fatalf("parseClaim(%q) accepted tol %v, want finite and >= 0", body, c.tol)
		}
		if err := c.verify(c.value); err != nil {
			t.Fatalf("parseClaim(%q) accepted a claim that fails against its own value: %v", body, err)
		}
	})
}
