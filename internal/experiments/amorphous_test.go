package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestAmorphousSweepLadder(t *testing.T) {
	pts, err := Amorphous(AmorphousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(amorphousMixes) * len(amorphousPolicies); len(pts) != want {
		t.Fatalf("rows = %d, want %d", len(pts), want)
	}

	// The headline claim: at least one mix the fixed width-3 slots
	// reject outright is served by amorphous placement with zero
	// failures.
	clean := 0
	for _, p := range pts {
		if p.FixedFailed > 0 && p.AmorphousFailed == 0 {
			clean++
		}
	}
	if clean == 0 {
		t.Errorf("no row with fixed failures and zero amorphous failures:\n%s", FormatAmorphous(pts))
	}

	fixedByMix := map[string]int{}
	for _, p := range pts {
		if p.Mix == "" || p.Policy == "" {
			t.Fatalf("row without mix/policy labels: %+v", p)
		}
		if p.Requests == 0 {
			t.Fatalf("%s/%s: empty stream", p.Mix, p.Policy)
		}
		for _, rate := range []float64{p.FixedFailRate, p.AmorphousFailRate} {
			if rate < 0 || rate > 1 {
				t.Errorf("%s/%s: failure rate %v outside [0,1]", p.Mix, p.Policy, rate)
			}
		}
		// Amorphous placement must never do worse than the fixed cut.
		if p.AmorphousFailed > p.FixedFailed {
			t.Errorf("%s/%s: amorphous failed %d > fixed %d", p.Mix, p.Policy, p.AmorphousFailed, p.FixedFailed)
		}
		// The fixed baseline ignores the policy dimension, so its column
		// must be byte-identical across policies within a mix.
		if prev, ok := fixedByMix[p.Mix]; ok && prev != p.FixedFailed {
			t.Errorf("%s: fixed failures differ across policies (%d vs %d)", p.Mix, prev, p.FixedFailed)
		}
		fixedByMix[p.Mix] = p.FixedFailed
		// A defrag pass that moved regions must have lowered the gauge.
		if p.Defrags > 0 && p.FramesMoved > 0 && p.DefragFragBeforePct <= p.DefragFragAfterPct {
			t.Errorf("%s/%s: defrag raised fragmentation %.1f%% -> %.1f%%",
				p.Mix, p.Policy, p.DefragFragBeforePct, p.DefragFragAfterPct)
		}
		switch p.Mix {
		case "sobel-only", "narrow":
			// Every module fits a width-3 slot: the baseline never fails.
			if p.FixedFailed != 0 {
				t.Errorf("%s/%s: fixed failed %d, want 0", p.Mix, p.Policy, p.FixedFailed)
			}
		case "gaussian-heavy":
			// Gaussians never fit a width-3 slot: the baseline mostly fails.
			if p.FixedFailRate < 0.5 {
				t.Errorf("%s/%s: fixed fail rate %.2f, want > 0.5", p.Mix, p.Policy, p.FixedFailRate)
			}
		}
	}

	out := FormatAmorphous(pts)
	for _, want := range []string{"fixed-fail", "amor-fail", "gaussian-heavy", "best-fit"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering misses %q:\n%s", want, out)
		}
	}
}

func TestAmorphousSweepDeterministic(t *testing.T) {
	a, err := Amorphous(AmorphousOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Amorphous(AmorphousOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep differs across worker counts:\n%v\nvs\n%v", a, b)
	}
}
