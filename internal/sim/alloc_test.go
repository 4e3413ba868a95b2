package sim

import "testing"

// The steady-state allocation contract of the kernel primitives: after
// a warm-up pass grows the backing arrays, the hot paths — calendar
// enqueue (near, same-cycle, and far), Signal.OnFire re-arm, the
// fire/dispatch loop and the in-place process sleep — must not
// allocate. BENCH_8/BENCH_9's allocs/op ceilings lean directly on these
// invariants.

// TestCalendarEnqueueZeroAlloc covers all three Schedule paths: a
// same-cycle event (bucket append), a small in-window delay, and a
// beyond-window delay that takes the far heap and migrates back.
func TestCalendarEnqueueZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	round := func() {
		k.Schedule(0, fn)            // same cycle
		k.Schedule(7, fn)            // in-window
		k.Schedule(ringSize+100, fn) // far heap, migrates back
		k.Run()
	}
	round() // warm the bucket and far-heap backing arrays
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("calendar enqueue+run allocates %.1f allocs per round, want 0", n)
	}
}

// TestOnFireRearmZeroAlloc re-arms a pre-bound continuation on a pulse
// signal across many fire cycles — the Stream/ICAP resume pattern. The
// subscription append, the Fire sweep, and the same-cycle dispatch must
// all reuse their backing arrays.
func TestOnFireRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "rearm")
	fires := 0
	fn := func() { fires++ }
	round := func() {
		sig.OnFire(fn)
		sig.Fire()
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("OnFire re-arm allocates %.1f allocs per round, want 0", n)
	}
	if fires == 0 {
		t.Fatal("continuation never ran")
	}
}

// TestWaitRearmZeroAlloc is the process-side twin: a Proc parked in
// Wait is woken by Fire without a per-wake closure or boxed event.
func TestWaitRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "wait")
	wakes := 0
	k.Go("waiter", func(p *Proc) {
		for {
			p.Wait(sig)
			wakes++
		}
	})
	k.Run() // park the process
	round := func() {
		sig.Fire()
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("Wait/Fire wake allocates %.1f allocs per round, want 0", n)
	}
	if wakes == 0 {
		t.Fatal("waiter never woke")
	}
}

// TestSleepInPlaceZeroAlloc covers Proc.Sleep's in-place path: a lone
// process sleeping near and beyond the ring window with one far event
// pending, so each round also recycles buckets and migrates the far
// heap. Only the sleep that the far event precedes is queued.
func TestSleepInPlaceZeroAlloc(t *testing.T) {
	k := NewKernel()
	start := NewSignal(k, "start")
	fn := func() {}
	sleeps := 0
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Wait(start)
			for i := 0; i < 64; i++ {
				p.Sleep(Time(i % 3)) // 63 cycles in all
			}
			p.Sleep(ringSize + 1)
			p.Sleep(2 * ringSize) // queued: the far event below is due first
			// End the round on a multiple of ringSize so every round
			// reuses the same (warm) buckets.
			p.Sleep(4*ringSize - 63 - (ringSize + 1) - 2*ringSize)
			sleeps += 67
		}
	})
	k.Run() // park the process
	round := func() {
		k.Schedule(3*ringSize, fn)
		start.Fire()
		k.Run()
	}
	round() // warm-up
	events := k.Events()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("in-place sleep allocates %.1f allocs per round, want 0", n)
	}
	if sleeps == 0 {
		t.Fatal("sleeper never ran")
	}
	// Each round fires the far callback, the signal wake and one event
	// per sleep, whether or not the sleep switched.
	if got, want := k.Events()-events, uint64(201*(2+67)); got != want {
		t.Fatalf("fired %d events over the measured rounds, want %d", got, want)
	}
}
