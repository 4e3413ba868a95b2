package rvcap

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1Throughput    — Table I (controller resources + max throughput)
//	BenchmarkReconfigTimes       — §IV-B (T_d/T_r, blocking HWICAP, unroll sweep)
//	BenchmarkTable2Comparison    — Table II (state-of-the-art comparison)
//	BenchmarkTable3Resources     — Table III (full SoC utilisation)
//	BenchmarkTable4Accelerators  — Table IV (T_d/T_r/T_c per filter)
//	BenchmarkFig3Sweep           — Fig. 3 (reconfig time vs RP size, both controllers)
//	BenchmarkFig4Floorplan       — Fig. 4 (SoC floorplan with the RP span)
//	BenchmarkAblation*           — design-choice ablations (DESIGN.md §6)
//
// Each benchmark prints the regenerated table once and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// reproduces the whole evaluation. Wall-clock time here is simulation
// cost, not the hardware time — hardware times are inside the tables.

import (
	"runtime"
	"sync"
	"testing"

	"rvcap/internal/experiments"
)

// printOnce guards the one-time table dumps so -benchtime reruns do not
// spam the log.
var printOnce sync.Map

func dump(b *testing.B, key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", text)
	}
}

func BenchmarkTable1Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RVCAPMeasured, "rvcap-MB/s")
		b.ReportMetric(r.HWICAPMeasured, "hwicap-MB/s")
		dump(b, "table1", r.String())
	}
}

func BenchmarkReconfigTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ReconfigTimes(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RVCAPDecisionMicros, "Td-us")
		b.ReportMetric(r.RVCAPReconfigMicros, "Tr-us")
		b.ReportMetric(r.HWICAPBlockingMillis, "hwicap-U1-ms")
		dump(b, "reconfig", r.String())
	}
}

func BenchmarkTable2Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ThroughputMBs, "rvcap-MB/s")
		dump(b, "table2", experiments.FormatTable2(rows))
	}
}

func BenchmarkTable3Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Res.LUT), "soc-LUTs")
		dump(b, "table3", experiments.FormatTable3(rows))
	}
}

func BenchmarkTable4Accelerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.OutputCorrect {
				b.Fatalf("%s output incorrect", r.Accelerator)
			}
		}
		b.ReportMetric(rows[0].ComputeMicros, "gaussian-Tc-us")
		b.ReportMetric(rows[len(rows)-1].TotalMicros, "sobel-Tex-us")
		dump(b, "table4", experiments.FormatTable4(rows))
	}
}

func BenchmarkFig3Sweep(b *testing.B) {
	opts := experiments.Fig3Options{Unroll: 16}
	if testing.Short() {
		opts.SkipHWICAP = true
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3(opts)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.RVCAPMBs, "rvcap-max-MB/s")
		if !opts.SkipHWICAP {
			b.ReportMetric(last.HWICAPMicros/last.RVCAPMicros, "hwicap/rvcap-ratio")
		}
		dump(b, "fig3", experiments.FormatFig3(points))
	}
}

func BenchmarkFig4Floorplan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RPFrames), "rp-frames")
		dump(b, "fig4", experiments.FormatFig4(r))
	}
}

func BenchmarkAblationDMABurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.BurstAblation(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].ThroughputMBs, "burst1-MB/s")
		b.ReportMetric(points[4].ThroughputMBs, "burst16-MB/s")
		dump(b, "burst", experiments.FormatBurstAblation(points))
	}
}

func BenchmarkAblationHWICAPFIFO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.FIFOAblation(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[len(points)-1].ThroughputMBs, "deep-fifo-MB/s")
		dump(b, "fifo", experiments.FormatFIFOAblation(points))
	}
}

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.CompressionAblation(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Ratio, "ratio")
		dump(b, "compress", experiments.FormatCompressionAblation(points))
	}
}

func BenchmarkAblationSafeValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ValidationAblation(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverheadPercent, "overhead-%")
		dump(b, "validate", experiments.FormatValidationAblation(r))
	}
}

// newSwapLoop builds the paper's case-study system with the three
// filter modules defined and returns it with the inner loop's op i:
// reconfigure module i mod 3, then filter one 512x512 image.
func newSwapLoop(tb testing.TB) (*System, func(i int) error) {
	tb.Helper()
	sys, err := New(WithUnpaddedBitstreams())
	if err != nil {
		tb.Fatal(err)
	}
	mods := make([]*Module, 0, 3)
	for _, f := range []string{Gaussian, Median, Sobel} {
		m, err := sys.DefineFilterModule(f)
		if err != nil {
			tb.Fatal(err)
		}
		mods = append(mods, m)
	}
	img := TestPattern(512, 512)
	return sys, func(i int) error {
		m := mods[i%len(mods)]
		return sys.Run(func(s *Session) error {
			if _, err := s.Reconfigure(m); err != nil {
				return err
			}
			_, _, err := s.FilterImage(img)
			return err
		})
	}
}

// BenchmarkEndToEndSwapAndCompute measures the simulator's own speed on
// the paper's case-study inner loop (reconfigure + filter one image) —
// useful for tracking the cost of the simulation itself.
func BenchmarkEndToEndSwapAndCompute(b *testing.B) {
	sys, op := newSwapLoop(b)
	startEvents := sys.HW().K.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ev := sys.HW().K.Events() - startEvents; ev > 0 && b.Elapsed() > 0 {
		b.ReportMetric(float64(ev)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ev), "ns/event")
	}
}

// TestSwapAndComputeAllocs bounds the host allocations of the
// BenchmarkEndToEndSwapAndCompute loop: the cold first op, which builds
// the first engine and warms every pooled buffer, and the warm op.
func TestSwapAndComputeAllocs(t *testing.T) {
	_, op := newSwapLoop(t)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := op(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	cold := ms1.Mallocs - ms0.Mallocs
	if cold > 4000 {
		t.Errorf("cold swap-and-compute op allocated %d times, ceiling 4000", cold)
	}

	i := 1
	warm := testing.AllocsPerRun(6, func() {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("swap-and-compute allocations: cold op %d, warm op %.0f", cold, warm)
	if warm > 150 {
		t.Errorf("warm swap-and-compute op allocated %.0f times, ceiling 150", warm)
	}
}
