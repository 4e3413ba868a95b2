package sched

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// The steady-state board: two fixed partitions, an eight-slot DDR
// bitstream cache, Poisson arrivals at 60% load with 45% module
// locality (the BENCH_9 ladder's board).
var steadyBoard = Config{RPs: 2, CacheSlots: 8, Seed: 11}

func steadyWorkload(jobs int) Workload {
	return Workload{Seed: 11, Jobs: jobs, Load: 0.60, RPs: 2, Locality: 0.45}
}

// The streamed path must be the materialised path with recycled
// records: the same Report, and a stream whose i-th record equals
// Generate()[i] however records are reused between calls.
func TestRunStreamMatchesRun(t *testing.T) {
	jobs := 2000
	if raceEnabled() {
		// The race detector slows the simulation ~20x; a shorter stream
		// still recycles every record many times over.
		jobs = 200
	}
	w := steadyWorkload(jobs)
	board, err := NewBoard("B0", steadyBoard)
	if err != nil {
		t.Fatal(err)
	}
	generated, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := board.Run(generated)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := board.RunStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunStream report differs from Run:\n%+v\nvs\n%+v", got, want)
	}

	fresh, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	var held []*Job
	for i, wantJob := range fresh {
		j := s.Next()
		if j == nil {
			t.Fatalf("stream ended after %d of %d jobs", i, len(fresh))
		}
		if *j != *wantJob {
			t.Fatalf("Next() #%d = %+v, Generate()[%d] = %+v", i, *j, i, *wantJob)
		}
		// Hand records back in a varying pattern so later calls reuse
		// records with stale fields, LIFO and several deep.
		held = append(held, j)
		if i%3 == 2 {
			for _, h := range held {
				s.Recycle(h)
			}
			held = held[:0]
		}
	}
	if j := s.Next(); j != nil {
		t.Errorf("stream yields job %d past its %d-job total", j.ID, s.Total())
	}
}

// heapSampler forwards a JobSource and, at evenly spaced points through
// the stream, collects garbage and samples the live heap.
type heapSampler struct {
	src   *WorkloadStream
	every int
	n     int
	ms    runtime.MemStats
	peak  uint64
	taken int
}

func (h *heapSampler) Next() *Job {
	if h.n%h.every == 0 {
		runtime.GC()
		runtime.ReadMemStats(&h.ms)
		if h.ms.HeapAlloc > h.peak {
			h.peak = h.ms.HeapAlloc
		}
		h.taken++
	}
	h.n++
	return h.src.Next()
}

func (h *heapSampler) Total() int     { return h.src.Total() }
func (h *heapSampler) Recycle(j *Job) { h.src.Recycle(j) }

// streamRung runs jobs through a fresh steady-state board and returns
// the host allocations RunStream made and the peak sampled live heap.
func streamRung(t *testing.T, jobs int) (allocs, peak uint64) {
	t.Helper()
	board, err := NewBoard("B0", steadyBoard)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := steadyWorkload(jobs).Stream()
	if err != nil {
		t.Fatal(err)
	}
	const samples = 8
	src := &heapSampler{src: stream, every: jobs / samples}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	rep, err := board.RunStream(src)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != jobs {
		t.Fatalf("rung of %d jobs completed %d", jobs, rep.Jobs)
	}
	if src.taken < 5 {
		t.Fatalf("rung of %d jobs took %d heap samples, want >= 5", jobs, src.taken)
	}
	return ms1.Mallocs - ms0.Mallocs, src.peak
}

// The bounded-memory ladder: a stream ten times longer may cost almost
// nothing more per extra job (pooled records, warm runtime arrays), and
// its live heap must stay within 1.25x of the short stream's.
func TestStreamLadderBoundedMemory(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts and live heap under the race detector measure its instrumentation")
	}
	const small, large = 1000, 10000
	allocsSmall, peakSmall := streamRung(t, small)
	allocsLarge, peakLarge := streamRung(t, large)
	t.Logf("%d jobs: %d allocs, peak heap %.2f MiB; %d jobs: %d allocs, peak heap %.2f MiB",
		small, allocsSmall, float64(peakSmall)/(1<<20), large, allocsLarge, float64(peakLarge)/(1<<20))

	perExtraJob := (float64(allocsLarge) - float64(allocsSmall)) / (large - small)
	if perExtraJob > 0.01 {
		t.Errorf("the %d-job rung allocates %.3f more per extra job than the %d-job rung (%d vs %d allocs), want <= 0.01 — per-job state is not pooled",
			large, perExtraJob, small, allocsLarge, allocsSmall)
	}
	if ratio := float64(peakLarge) / float64(peakSmall); ratio > 1.25 {
		t.Errorf("peak live heap grew x%.3f from %d to %d jobs, ceiling x1.25 — memory is not bounded over the stream",
			ratio, small, large)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
