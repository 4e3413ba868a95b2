package axi

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rvcap/internal/sim"
)

// streamScript is one producer/consumer scenario on a single Stream:
// the producer waits pushGaps[i] cycles and then pushes bursts[i]; the
// consumer waits popGaps[j] cycles and then pops up to popSizes[j]
// beats, until every pushed beat is consumed.
type streamScript struct {
	capacity int
	bursts   [][]Beat
	pushGaps []sim.Time
	popSizes []int
	popGaps  []sim.Time
}

func (sc streamScript) beats() int {
	n := 0
	for _, b := range sc.bursts {
		n += len(b)
	}
	return n
}

// newStreamScript draws a scenario from rng. Beat data is a running
// sequence number, so the logs show order, loss and duplication.
func newStreamScript(rng *rand.Rand, capacity, maxBurst, maxPop, lastOneIn, maxGap int) streamScript {
	sc := streamScript{capacity: capacity}
	seq := uint64(0)
	for i := 0; i < 6+rng.Intn(10); i++ {
		burst := make([]Beat, 1+rng.Intn(maxBurst))
		for j := range burst {
			seq++
			burst[j] = Beat{Data: seq, Keep: FullKeep, Last: lastOneIn > 0 && rng.Intn(lastOneIn) == 0}
		}
		sc.bursts = append(sc.bursts, burst)
		sc.pushGaps = append(sc.pushGaps, sim.Time(rng.Intn(maxGap+1)))
	}
	// Every pop takes at least one beat, so there are at most as many
	// pops as beats.
	for range sc.beats() {
		sc.popSizes = append(sc.popSizes, 1+rng.Intn(maxPop))
		sc.popGaps = append(sc.popGaps, sim.Time(rng.Intn(maxGap+1)))
	}
	return sc
}

// beatString renders delivered beats as data values, with L after a
// TLAST beat.
func beatString(bs []Beat) string {
	s := ""
	for _, b := range bs {
		s += fmt.Sprint(" ", b.Data)
		if b.Last {
			s += "L"
		}
	}
	return s
}

// runStreamAsync plays sc through PushBurstAsync/PopBurstAsync
// continuations and logs every burst completion and every delivery
// with its cycle.
func runStreamAsync(sc streamScript) []string {
	k := sim.NewKernel()
	s := NewStream(k, "s", sc.capacity)
	var log []string
	var push func(i int)
	push = func(i int) {
		if i == len(sc.bursts) {
			return
		}
		k.Schedule(sc.pushGaps[i], func() {
			s.PushBurstAsync(sc.bursts[i], func() {
				log = append(log, fmt.Sprintf("push%d@%d", i, k.Now()))
				push(i + 1)
			})
		})
	}
	got, total := 0, sc.beats()
	var pop func(j int)
	pop = func(j int) {
		if got == total {
			return
		}
		k.Schedule(sc.popGaps[j], func() {
			dst := make([]Beat, sc.popSizes[j])
			s.PopBurstAsync(dst, func(n int) {
				got += n
				log = append(log, fmt.Sprintf("pop%d@%d:%s", j, k.Now(), beatString(dst[:n])))
				pop(j + 1)
			})
		})
	}
	// Each side starts as one event at cycle 0, as a process does.
	k.Schedule(0, func() { push(0) })
	k.Schedule(0, func() { pop(0) })
	k.Run()
	return append(log, fmt.Sprintf("end@%d len=%d pushed=%d popped=%d", k.Now(), s.Len(), s.Pushed(), s.Popped()))
}

// runStreamPerBeat plays sc with two processes moving one beat per
// Push/Pop call: the model the burst calls must match. A pop blocks for
// its first beat, then takes what is buffered up to its size, stopping
// after a TLAST beat.
func runStreamPerBeat(sc streamScript) []string {
	k := sim.NewKernel()
	s := NewStream(k, "s", sc.capacity)
	var log []string
	k.Go("producer", func(p *sim.Proc) {
		for i, burst := range sc.bursts {
			p.Sleep(sc.pushGaps[i])
			for _, b := range burst {
				s.Push(p, b)
			}
			log = append(log, fmt.Sprintf("push%d@%d", i, p.Now()))
		}
	})
	k.Go("consumer", func(p *sim.Proc) {
		for j, got := 0, 0; got < sc.beats(); j++ {
			p.Sleep(sc.popGaps[j])
			var dst []Beat
			for len(dst) < sc.popSizes[j] && (len(dst) == 0 || s.Len() > 0) {
				b := s.Pop(p)
				dst = append(dst, b)
				if b.Last {
					break
				}
			}
			got += len(dst)
			log = append(log, fmt.Sprintf("pop%d@%d:%s", j, p.Now(), beatString(dst)))
		}
	})
	k.Run()
	return append(log, fmt.Sprintf("end@%d len=%d pushed=%d popped=%d", k.Now(), s.Len(), s.Pushed(), s.Popped()))
}

// TestStreamAsyncMatchesPerBeat checks the burst pair against the
// per-beat process model over random burst sizes, pop sizes, FIFO
// capacities, TLAST placements and gaps: the same beats in the same
// order, the same TLAST early stops, the same ring wrap, and every burst
// completion and delivery at the same cycle under back-pressure.
func TestStreamAsyncMatchesPerBeat(t *testing.T) {
	cases := []struct {
		name                                       string
		capacity, maxBurst, maxPop, lastOneIn, gap int
	}{
		{"depth-1", 1, 5, 3, 4, 2},
		{"bursts-overfill-fifo", 4, 16, 6, 5, 3},
		{"pops-outsize-fifo", 3, 4, 12, 6, 4},
		{"no-tlast", 5, 9, 7, 0, 2},
		{"tlast-every-beat", 5, 6, 6, 1, 2},
		{"same-cycle-only", 6, 9, 9, 3, 0},
		{"sparse-traffic", 8, 3, 3, 2, 40},
		{"wide-fifo", 16, 24, 10, 8, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				sc := newStreamScript(rand.New(rand.NewSource(seed)), c.capacity, c.maxBurst, c.maxPop, c.lastOneIn, c.gap)
				async, perBeat := runStreamAsync(sc), runStreamPerBeat(sc)
				if !slices.Equal(async, perBeat) {
					for i := range min(len(async), len(perBeat)) {
						if async[i] != perBeat[i] {
							t.Fatalf("seed %d: entry %d: async %q, per-beat %q", seed, i, async[i], perBeat[i])
						}
					}
					t.Fatalf("seed %d: async logged %d entries, per-beat %d", seed, len(async), len(perBeat))
				}
			}
		})
	}
}
