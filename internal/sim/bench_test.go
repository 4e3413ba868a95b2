package sim

import "testing"

// BenchmarkScheduleFire measures the raw schedule+dispatch cost of
// same-cycle callback events — the dominant traffic class (signal wakes,
// zero-delay handoffs).
func BenchmarkScheduleFire(b *testing.B) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.Schedule(0, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(0, fn)
	k.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkScheduleFireDelayed measures small in-window delays (stream
// pacing, bus latencies).
func BenchmarkScheduleFireDelayed(b *testing.B) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.Schedule(Time(n%7+1), fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(1, fn)
	k.Run()
}

// BenchmarkScheduleFireFar measures beyond-window delays that take the
// far-heap path and migrate back into the ring.
func BenchmarkScheduleFireFar(b *testing.B) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.Schedule(4*ringSize, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(4*ringSize, fn)
	k.Run()
}

// BenchmarkProcSleepInPlace measures a lone sleeper: nothing else is
// pending, so every Sleep advances time in place with no coroutine
// switch (the HWICAP keyhole's bus hops).
func BenchmarkProcSleepInPlace(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	k.Run()
}

// BenchmarkProcSleepContended measures the full process pause/dispatch
// round trip, the unit cost of every beat-level stream handoff: two
// sleepers interleave cycle by cycle, so each Sleep finds the other's
// wake due first and must queue and yield.
func BenchmarkProcSleepContended(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < 2; w++ {
		k.Go("sleeper", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	k.Run()
}

// BenchmarkSignalPingPong measures two processes alternating over a pair
// of signals: the Wait/Fire wake path.
func BenchmarkSignalPingPong(b *testing.B) {
	k := NewKernel()
	ping := NewSignal(k, "ping")
	pong := NewSignal(k, "pong")
	b.ReportAllocs()
	b.ResetTimer()
	// The echoer starts first so it is already waiting when the
	// driver's first Fire lands.
	k.Go("echo", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(ping)
			pong.Fire()
		}
	})
	k.Go("drive", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Fire()
			p.Wait(pong)
		}
	})
	k.Run()
}

// BenchmarkResourceContention measures FIFO resource hand-over between
// two contending processes.
func BenchmarkResourceContention(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "ddr")
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < 2; w++ {
		k.Go("w", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Acquire(p)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	k.Run()
}
