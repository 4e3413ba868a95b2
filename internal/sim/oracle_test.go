package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestRunUntilCappedMigrationInvariant pins down the contract of
// position()'s capped exit: RunUntil(limit) that stops between events
// calls setBase(limit), eagerly migrating far events the new window
// covers into ring buckets even though the caller returns false. The
// invariant that makes this safe is that every migrated event fires at
// a cycle >= limit (strictly later than any cycle a smaller subsequent
// limit could ask for), so no later RunUntil with a smaller limit, and
// no Schedule interleaved at the capped cycle, can observe a window
// that skipped past a migrated event.
func TestRunUntilCappedMigrationInvariant(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var got []string
		log := func(tag string) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%d", tag, k.Now())) }
		}
		// Far events just beyond the initial window, including both
		// sides of the base+ringSize boundary.
		k.At(ringSize-1, log("edge-in"))
		k.At(ringSize, log("edge-out"))
		k.At(ringSize+1, log("far-a"))
		k.At(2*ringSize+5, log("far-b"))

		// Capped run that stops between events: this advances base to
		// the limit and migrates far-a (and edge-out) into ring buckets
		// while returning "nothing fired past the limit".
		k.RunUntil(ringSize - 1)
		if want := []string{fmt.Sprintf("edge-in@%d", ringSize-1)}; len(got) != 1 || got[0] != want[0] {
			t.Fatalf("after capped run got %v, want %v", got, want)
		}

		// A subsequent RunUntil with a *smaller* limit must fire nothing
		// and must not move time backwards.
		k.RunUntil(5)
		if len(got) != 1 {
			t.Fatalf("smaller-limit RunUntil fired extra events: %v", got)
		}
		if k.Now() != ringSize-1 {
			t.Fatalf("Now() = %d after smaller-limit RunUntil, want %d", k.Now(), ringSize-1)
		}

		// An interleaved Schedule at the capped cycle lands before every
		// migrated event.
		k.Schedule(0, log("interleaved"))
		k.Schedule(1, log("interleaved+1"))
		k.Run()
		want := []string{
			fmt.Sprintf("edge-in@%d", ringSize-1),
			fmt.Sprintf("interleaved@%d", ringSize-1),
			fmt.Sprintf("edge-out@%d", ringSize),
			fmt.Sprintf("interleaved+1@%d", ringSize),
			fmt.Sprintf("far-a@%d", ringSize+1),
			fmt.Sprintf("far-b@%d", 2*ringSize+5),
		}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %q, want %q (full: %v)", i, got[i], want[i], got)
			}
		}
	})
}

// TestRunUntilCappedThenRepeatedCaps walks the window forward through a
// series of capped RunUntil calls whose limits straddle successive
// base+ringSize boundaries, with a pending far event beyond each cap,
// verifying no cap sequence can lose or reorder the migrated events.
func TestRunUntilCappedThenRepeatedCaps(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var fired []Time
		for _, at := range []Time{ringSize + 1, 2 * ringSize, 3*ringSize - 1, 3 * ringSize, 3*ringSize + 1} {
			at := at
			k.At(at, func() { fired = append(fired, at) })
		}
		// Caps chosen to land between events and force migrations.
		for _, cap := range []Time{ringSize - 1, ringSize + 2, 2*ringSize - 1, 2, 2 * ringSize, 4 * ringSize} {
			k.RunUntil(cap)
		}
		want := []Time{ringSize + 1, 2 * ringSize, 3*ringSize - 1, 3 * ringSize, 3*ringSize + 1}
		if len(fired) != len(want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
			}
		}
		if k.Now() != 4*ringSize {
			t.Fatalf("Now() = %d, want %d", k.Now(), 4*ringSize)
		}
	})
}

// oracleKernel is the surface the oracle's op generator drives. The
// kernel under test (through calendarKernel) and the reference model
// (refKernel) both satisfy it, so the generator is written once.
type oracleKernel interface {
	Now() Time
	Schedule(delay Time, fn func())
	// Spawn starts a process at the current cycle; body sleeps through
	// the function it is handed.
	Spawn(name string, body func(sleep func(Time)))
	Halt()
	Step() bool
	Run()
	RunUntil(t Time)
	Pending() int
	Events() uint64
}

// calendarKernel adapts the kernel under test to oracleKernel.
type calendarKernel struct{ *Kernel }

func (k calendarKernel) Spawn(name string, body func(sleep func(Time))) {
	k.Go(name, func(p *Proc) { body(p.Sleep) })
}

// refEvent is one event of the reference model's queue.
type refEvent struct {
	at Time
	fn func()
}

// refKernel is the oracle's reference model: the plainest kernel with
// the semantics the simulator promises. Events live in one slice sorted
// by (cycle, scheduling order); every Step pops the head, sets the time
// and counts it.
// Processes are goroutines with a strict channel handoff, and a sleep
// always queues its wake, so there is no in-place time advance, no
// bucket ring, no far heap and no migration to get wrong. Halt,
// RunUntil, Step and Pending keep the contract the sim.Kernel docs
// state.
type refKernel struct {
	now    Time
	halt   bool
	fired  uint64
	events []refEvent
}

func (r *refKernel) Now() Time                      { return r.now }
func (r *refKernel) Halt()                          { r.halt = true }
func (r *refKernel) Pending() int                   { return len(r.events) }
func (r *refKernel) Events() uint64                 { return r.fired }
func (r *refKernel) Schedule(delay Time, fn func()) { r.push(r.now+delay, fn) }

// push inserts behind every event due at or before t, which keeps
// same-cycle events in scheduling order.
func (r *refKernel) push(t Time, fn func()) {
	i := sort.Search(len(r.events), func(i int) bool { return r.events[i].at > t })
	r.events = slices.Insert(r.events, i, refEvent{at: t, fn: fn})
}

func (r *refKernel) Step() bool {
	if len(r.events) == 0 {
		return false
	}
	e := r.events[0]
	r.events = r.events[1:]
	r.now = e.at
	r.fired++
	e.fn()
	return true
}

func (r *refKernel) Run() {
	r.halt = false
	for !r.halt && r.Step() {
	}
}

func (r *refKernel) RunUntil(t Time) {
	r.halt = false
	for !r.halt && len(r.events) > 0 && r.events[0].at <= t {
		r.Step()
	}
	if !r.halt && r.now < t {
		r.now = t
	}
}

// Spawn runs body on its own goroutine. Exactly one side runs at a
// time: dispatch hands the goroutine the turn and blocks until it sleeps
// (having queued its wake) or returns.
func (r *refKernel) Spawn(name string, body func(sleep func(Time))) {
	turn, yield := make(chan struct{}), make(chan struct{})
	dispatch := func() {
		turn <- struct{}{}
		<-yield
	}
	go func() {
		<-turn
		body(func(d Time) {
			r.push(r.now+d, dispatch)
			yield <- struct{}{}
			<-turn
		})
		yield <- struct{}{}
	}()
	r.push(r.now, dispatch)
}

// oracleRand is the oracle's source of choices: math/rand for the
// seeded suite, the fuzzer's bytes for FuzzKernelOracle.
type oracleRand interface{ Intn(n int) int }

// byteRand draws choices from fuzz input, two bytes per choice; once the
// input runs out it continues from a fixed-seed generator so every input
// drives a full-length run.
type byteRand struct {
	b    []byte
	rest *rand.Rand
}

func (r *byteRand) Intn(n int) int {
	if len(r.b) < 2 {
		return r.rest.Intn(n)
	}
	v := int(r.b[0]) | int(r.b[1])<<8
	r.b = r.b[2:]
	return v % n
}

// oracleRun drives one kernel through a pseudo-random sequence of
// schedule / cascade / process / halt / RunUntil / Step operations and
// returns the observable trace: firing order with cycles, final time,
// and the fired counter. The op stream is a pure function of the choice
// source, so running it once per kernel yields directly comparable
// traces. Processes sleep from the same boundary delay mix as the
// callbacks: on the kernel under test a sleep with nothing due before
// its wake-up advances time in place, while the reference always queues
// the wake, so any drift of the in-place path shows up here.
func oracleRun(k oracleKernel, rng oracleRand) (trace []string, now Time, fired uint64) {
	id := 0
	procs := 0
	// Delay mix biased toward the interesting boundaries: same-cycle
	// cascades (compaction path), window edges base+ringSize±1, and far
	// events that must migrate back.
	delays := []Time{0, 0, 1, 2, 63, 64, ringSize - 1, ringSize, ringSize + 1, 2 * ringSize, 3*ringSize + 7}
	delay := func() Time {
		if rng.Intn(4) == 0 {
			return Time(rng.Intn(4 * ringSize))
		}
		return delays[rng.Intn(len(delays))]
	}
	var schedule, spawn func(depth int)
	schedule = func(depth int) {
		n := id
		id++
		k.Schedule(delay(), func() {
			trace = append(trace, fmt.Sprintf("%d@%d", n, k.Now()))
			switch {
			case depth < 3 && rng.Intn(3) == 0:
				// Same-cycle cascade long enough to push the bucket
				// cursor past the pos >= 64 compaction threshold.
				for i := 0; i < 70; i++ {
					m := id
					id++
					k.Schedule(0, func() { trace = append(trace, fmt.Sprintf("%d@%d", m, k.Now())) })
				}
			case depth < 4 && rng.Intn(4) == 0:
				spawn(depth + 1)
			case depth < 5:
				schedule(depth + 1)
				if rng.Intn(2) == 0 {
					schedule(depth + 1)
				}
			}
			if rng.Intn(64) == 0 {
				k.Halt()
			}
		})
	}
	// spawn starts a process that sleeps a few times, now and then
	// scheduling a callback, starting another process or halting the
	// run from inside itself before its next sleep.
	spawn = func(depth int) {
		if procs >= 48 {
			return
		}
		procs++
		n := id
		id++
		k.Spawn(fmt.Sprintf("p%d", n), func(sleep func(Time)) {
			for i, m := 0, 1+rng.Intn(8); i < m; i++ {
				trace = append(trace, fmt.Sprintf("p%d.%d@%d", n, i, k.Now()))
				switch rng.Intn(8) {
				case 0:
					schedule(depth + 1)
				case 1:
					if depth < 4 {
						spawn(depth + 1)
					}
				case 2:
					if rng.Intn(4) == 0 {
						k.Halt()
					}
				}
				sleep(delay())
			}
			trace = append(trace, fmt.Sprintf("p%d.end@%d", n, k.Now()))
		})
	}
	for round := 0; round < 40; round++ {
		// Some rounds add no callbacks, so processes also sleep with
		// the ring empty and only far events (or nothing) pending.
		for i := rng.Intn(5); i > 0; i-- {
			schedule(0)
		}
		if rng.Intn(2) == 0 {
			spawn(0)
		}
		switch rng.Intn(5) {
		case 0:
			// Capped run landing between events (often mid-sleep),
			// straddling a window boundary — exercises the
			// eager-migration exit.
			k.RunUntil(k.Now() + Time(rng.Intn(2*ringSize)))
		case 1:
			// Smaller-or-equal limit: must be a no-op for past cycles.
			limit := Time(rng.Intn(int(k.Now()) + 1))
			k.RunUntil(limit)
		case 2:
			for i := 0; i < rng.Intn(8); i++ {
				k.Step()
			}
		case 3:
			k.RunUntil(k.Now() + ringSize + Time(rng.Intn(3)) - 1)
		case 4:
			k.RunUntil(k.Now())
		}
	}
	k.Run()
	// A Halt fired by the final Run leaves events pending; drain them so
	// both kernels account for every scheduled event.
	for k.Pending() > 0 {
		k.Run()
	}
	// Epilogue on the idle kernel, with a process budget of its own: a
	// lone process sleeps across the window edges against at most one
	// far callback, the sparse case where an in-place sleep has to
	// consult and migrate the far heap.
	procs = 0
	for i := 0; i < 6; i++ {
		if rng.Intn(2) == 0 {
			n := id
			id++
			k.Schedule(ringSize+Time(rng.Intn(3*ringSize)), func() {
				trace = append(trace, fmt.Sprintf("%d@%d", n, k.Now()))
			})
		}
		spawn(4)
		for k.Pending() > 0 {
			k.Run()
		}
	}
	return trace, k.Now(), k.Events()
}

// compareOracle runs the oracle on the kernel under test and on the
// reference model, each with a fresh choice source from src, and fails
// on the first difference in trace, final time or fired count. It
// returns the trace length.
func compareOracle(t *testing.T, src func() oracleRand) int {
	t.Helper()
	ct, cn, cf := oracleRun(calendarKernel{NewKernel()}, src())
	rt, rn, rf := oracleRun(&refKernel{}, src())
	if len(ct) != len(rt) {
		t.Fatalf("trace lengths differ: calendar %d, reference %d", len(ct), len(rt))
	}
	for i := range ct {
		if ct[i] != rt[i] {
			t.Fatalf("trace[%d] differs: calendar %q, reference %q", i, ct[i], rt[i])
		}
	}
	if cn != rn {
		t.Fatalf("final Now differs: calendar %d, reference %d", cn, rn)
	}
	if cf != rf {
		t.Fatalf("fired counts differ: calendar %d, reference %d", cf, rf)
	}
	return len(ct)
}

// TestCalendarFuzzOracleMatchesLegacy is the randomized equivalence
// oracle against the reference model, which keeps the semantics of the
// retired legacy heap queue: identical seeded
// schedule/process/halt/RunUntil/Step sequences must produce identical
// fire order, identical final time, and identical fired counts —
// including the same-cycle cascade compaction path, far-heap migrations
// at the base+ringSize±1 boundaries and in-place process sleeps.
func TestCalendarFuzzOracleMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := compareOracle(t, func() oracleRand { return rand.New(rand.NewSource(seed)) })
			if n < 200 {
				t.Fatalf("oracle run too small to be meaningful: %d events", n)
			}
		})
	}
}

// FuzzKernelOracle is the same oracle with the fuzzer choosing every
// delay, cascade, spawn, halt and run cap. The committed corpus under
// testdata/fuzz/FuzzKernelOracle runs as part of go test.
func FuzzKernelOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		compareOracle(t, func() oracleRand {
			return &byteRand{b: data, rest: rand.New(rand.NewSource(1))}
		})
	})
}

// TestInPlaceSleepStaleBucket pins the hazard the in-place sleep brings
// to drain(): a process advances time in place (base moves off the
// bucket drain was walking), then sleeps on the slow path into that same
// bucket slot one window later. drain must not fire that wake from the
// stale bucket at the current cycle.
func TestInPlaceSleepStaleBucket(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var got []string
		log := func(tag string) { got = append(got, fmt.Sprintf("%s@%d", tag, k.Now())) }
		k.Go("p", func(p *Proc) {
			p.Sleep(5) // nothing else pending: advances in place
			log("p")
			k.Schedule(1, func() { log("cb") })
			p.Sleep(ringSize - 5) // behind cb: queued into bucket 0
			log("p")
		})
		k.Run()
		want := []string{"p@5", "cb@6", fmt.Sprintf("p@%d", ringSize)}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		if k.Events() != 4 {
			t.Fatalf("fired %d events, want 4 (start, two wakes, cb)", k.Events())
		}
	})
}

// TestInPlaceSleepFarEvents covers sleeps past the ring window with only
// far events pending: one due before the wake (the sleep must queue
// behind it), one due at the wake's cycle (scheduled first, so it fires
// first), and none at all (the sleep advances in place and setBase
// migrates nothing early).
func TestInPlaceSleepFarEvents(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var got []string
		log := func(tag string) { got = append(got, fmt.Sprintf("%s@%d", tag, k.Now())) }
		k.At(ringSize+10, func() { log("far-a") })
		k.At(3*ringSize, func() { log("far-b") })
		k.Go("p", func(p *Proc) {
			p.Sleep(2 * ringSize)
			log("p")
			p.Sleep(ringSize)
			log("p")
			p.Sleep(3*ringSize + 7)
			log("p")
			k.Schedule(ringSize+1, func() { log("far-c") })
			p.Sleep(ringSize)
			log("p")
		})
		k.Run()
		want := []string{
			fmt.Sprintf("far-a@%d", ringSize+10),
			fmt.Sprintf("p@%d", 2*ringSize),
			fmt.Sprintf("far-b@%d", 3*ringSize),
			fmt.Sprintf("p@%d", 3*ringSize),
			fmt.Sprintf("p@%d", 6*ringSize+7),
			fmt.Sprintf("p@%d", 7*ringSize+7),
			fmt.Sprintf("far-c@%d", 7*ringSize+8),
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		if k.Events() != 8 {
			t.Fatalf("fired %d events, want 8", k.Events())
		}
	})
}
