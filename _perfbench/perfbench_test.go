package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestFingerprintRepeats runs one batch of every workload twice with one
// seed and once with another: the exact counts and sim_digest must
// repeat bit-for-bit for the seed and the digest must change with it.
func TestFingerprintRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make(map[string]bool)
	for _, s := range perLayer {
		names[s.name] = true
	}
	// Seeds 1 and 2 draw different paper-swap filter orders.
	if reflect.DeepEqual(rand.New(rand.NewSource(1)).Perm(3), rand.New(rand.NewSource(2)).Perm(3)) {
		t.Fatal("seeds 1 and 2 draw the same filter order")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var got [3]*batch
			for i, seed := range []int64{1, 1, 2} {
				b, err := w.run(seed, newTracer(false))
				if err != nil {
					t.Fatal(err)
				}
				if b.failed != 0 || b.jobs == 0 {
					t.Fatalf("seed %d: %d of %d jobs failed", seed, b.failed, b.jobs)
				}
				if b.paperDetail != "" && !(b.paperErrPct <= b.paperTolPct) {
					t.Errorf("seed %d: paper anchor off by %.4f%%:%s", seed, b.paperErrPct, b.paperDetail)
				}
				got[i] = b
			}
			if got[0].digest != got[1].digest || !sameMetrics(got[0].exact, got[1].exact) {
				t.Errorf("one seed, two results:\n%s %v\n%s %v", got[0].digest, got[0].exact, got[1].digest, got[1].exact)
			}
			if got[0].digest == got[2].digest {
				t.Errorf("seeds 1 and 2 give the same sim_digest %s", got[0].digest)
			}
			for _, e := range got[0].exact {
				if !names[e.name] {
					t.Errorf("exact count %s is not a per-layer metric", e.name)
				}
			}
		})
	}
}

func TestMicroMeasurements(t *testing.T) {
	ms, err := runMicro()
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range perLayer {
		names[s.name] = true
	}
	for _, m := range ms {
		if !names[m.name] || !(m.value > 0) {
			t.Errorf("micro-measurement %s = %v (a per-layer metric: %v)", m.name, m.value, names[m.name])
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"rvcap/internal/fpga.(*ICAP).WriteWord", "rvcap/internal/core.(*Controller).startConverter.func3"}, "fpga"},
		{[]string{"runtime.memmove", "rvcap/internal/axi.(*Stream).PopBurstAsync"}, "axi"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "rvcap/internal/sched.(*Runtime).dispatch"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.coroswitch", "iter.Pull[go.shape.struct {}].func1", "rvcap/internal/sim.(*Proc).Sleep"}, "sim"},
		{[]string{"rvcap/internal/runner.Map[go.shape.*rvcap/internal/sched.Report].func1"}, "runner"},
		{[]string{"rvcap/internal/plic.(*PLIC).claim"}, "soc"},
		{[]string{"rvcap.(*Session).FilterImage"}, "other"},
		{[]string{"crypto/sha256.block", "main.runPaperSwap"}, "harness"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime.other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var sink []byte

func TestPeakHeap(t *testing.T) {
	h := startPeakHeap()
	sink = make([]byte, 32<<20)
	peak := h.stop()
	sink = nil
	if peak < 32<<20 {
		t.Fatalf("peak live heap %d bytes while 32 MiB were live", peak)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	samples, err := decodeProfile(prof.stop())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if fn == "rvcap/perfbench.spin" || fn == "main.spin" {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin", inSpin, total)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the checkout root lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit || got[i].Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], s)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
