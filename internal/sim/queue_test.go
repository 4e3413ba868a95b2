package sim

import (
	"fmt"
	"testing"
)

// TestCalendarFarFutureOrdering schedules events far beyond the ring
// window interleaved with near events and checks global (time, FIFO)
// order survives the far-heap migration.
func TestCalendarFarFutureOrdering(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var got []string
		add := func(at Time, tag string) {
			k.At(at, func() { got = append(got, fmt.Sprintf("%d:%s", at, tag)) })
		}
		// Far events first (beyond ringSize), then near, then same-cycle
		// duplicates to exercise FIFO ties across the migration boundary.
		add(10_000, "far-a")
		add(10_000, "far-b")
		add(700, "mid")
		add(3, "near")
		add(10_000, "far-c")
		k.Run()
		want := []string{"3:near", "700:mid", "10000:far-a", "10000:far-b", "10000:far-c"}
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

// TestRunUntilBetweenEvents advances time to a t that no event lands on,
// with the next event beyond the calendar window, and checks that (a) the
// queue keeps the pending event, (b) time reads t, and (c) scheduling at
// the new current time still works — i.e. the bucket window followed time.
func TestRunUntilBetweenEvents(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		var fired []Time
		k.At(5, func() { fired = append(fired, k.Now()) })
		k.At(3*ringSize, func() { fired = append(fired, k.Now()) })

		k.RunUntil(ringSize + 7) // lands strictly between the two events
		if k.Now() != ringSize+7 {
			t.Fatalf("Now() = %d, want %d", k.Now(), ringSize+7)
		}
		if len(fired) != 1 || fired[0] != 5 {
			t.Fatalf("fired = %v, want [5]", fired)
		}
		if k.Pending() != 1 {
			t.Fatalf("Pending() = %d, want 1", k.Pending())
		}

		// The ring is empty here; a same-cycle schedule must fire before
		// the far event and at the correct cycle.
		k.Schedule(0, func() { fired = append(fired, k.Now()) })
		k.Run()
		want := []Time{5, ringSize + 7, 3 * ringSize}
		if len(fired) != 3 || fired[1] != want[1] || fired[2] != want[2] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	})
}

// TestRunUntilEmptyQueueThenSchedule: RunUntil on a drained queue must
// still advance time, and later scheduling from that time must work even
// though the calendar window was never walked forward.
func TestRunUntilEmptyQueueThenSchedule(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		k.RunUntil(1_000_000)
		if k.Now() != 1_000_000 {
			t.Fatalf("Now() = %d, want 1000000", k.Now())
		}
		var at Time
		k.Schedule(2, func() { at = k.Now() })
		k.Run()
		if at != 1_000_002 {
			t.Fatalf("event fired at %d, want 1000002", at)
		}
	})
}

// TestWaitAnySweepsLosers is the regression test for the stale-
// subscription leak: a WaitAny polling loop must not grow the waiter
// lists of the signals that keep losing.
func TestWaitAnySweepsLosers(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		c := NewSignal(k, "c")
		const rounds = 100
		wins := 0
		k.Go("poller", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				if got := p.WaitAny(a, b, c); got != 1 {
					t.Errorf("round %d: WaitAny = %d, want 1", i, got)
					return
				}
				wins++
			}
		})
		k.Go("firer", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(10)
				b.Fire()
			}
		})
		k.Run()
		if wins != rounds {
			t.Fatalf("poller won %d rounds, want %d", wins, rounds)
		}
		for _, s := range []*Signal{a, b, c} {
			if n := len(s.waiters); n != 0 {
				t.Errorf("signal %s still holds %d stale waiters after %d rounds", s.name, n, rounds)
			}
		}
	})
}

// TestWaitAnyStaleFireIsNoop: after one signal of a WaitAny set wins,
// firing a losing signal later must not wake anything or panic — its
// subscription was swept.
func TestWaitAnyStaleFireIsNoop(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		wakes := 0
		k.Go("waiter", func(p *Proc) {
			if got := p.WaitAny(a, b); got != 0 {
				t.Errorf("WaitAny = %d, want 0", got)
			}
			wakes++
			p.Sleep(100) // stay alive across the stale fire
		})
		k.Go("driver", func(p *Proc) {
			p.Sleep(1)
			a.Fire()
			p.Sleep(1)
			b.Fire() // must be a no-op: waiter already left this WaitAny
		})
		k.Run()
		if wakes != 1 {
			t.Fatalf("waiter woke %d times, want 1", wakes)
		}
	})
}

// TestWaitAnySameCycleDoubleFire: two signals of one WaitAny set firing
// in the same cycle must wake the process exactly once, attributed to
// whichever fired first.
func TestWaitAnySameCycleDoubleFire(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		var got []int
		k.Go("waiter", func(p *Proc) {
			got = append(got, p.WaitAny(a, b))
		})
		k.Schedule(5, func() {
			b.Fire()
			a.Fire()
		})
		k.Run()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("wakes = %v, want [1] (first firer wins)", got)
		}
	})
}

// TestResourceFIFOFairness: N contenders acquiring in a loop must be
// granted strictly round-robin — no waiter is ever passed over.
func TestResourceFIFOFairness(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := NewKernel()
		r := NewResource(k, "ddr")
		const workers = 5
		const rounds = 20
		var grants []int
		for w := 0; w < workers; w++ {
			w := w
			k.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
				for i := 0; i < rounds; i++ {
					r.Acquire(p)
					grants = append(grants, w)
					p.Sleep(3)
					r.Release()
				}
			})
		}
		k.Run()
		if len(grants) != workers*rounds {
			t.Fatalf("grants = %d, want %d", len(grants), workers*rounds)
		}
		// All workers enqueue at cycle 0 in spawn order and re-enqueue
		// immediately after releasing, so FIFO ⇒ strict round-robin.
		for i, g := range grants {
			if g != i%workers {
				t.Fatalf("grant %d went to worker %d, want %d (FIFO violated)", i, g, i%workers)
			}
		}
		if r.Busy() {
			t.Fatal("resource still busy after all workers finished")
		}
	})
}

// TestSchedulePastWindowAfterIdle: push events far enough apart that the
// window repeatedly goes stale, exercising the far-heap catch-up path.
func TestSchedulePastWindowAfterIdle(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var step func()
	step = func() {
		fired = append(fired, k.Now())
		if len(fired) < 6 {
			k.Schedule(10*ringSize, step)
		}
	}
	k.Schedule(1, step)
	k.Run()
	if len(fired) != 6 {
		t.Fatalf("fired %d times, want 6: %v", len(fired), fired)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i]-fired[i-1] != 10*ringSize {
			t.Fatalf("gap %d = %d cycles, want %d", i, fired[i]-fired[i-1], 10*ringSize)
		}
	}
}
