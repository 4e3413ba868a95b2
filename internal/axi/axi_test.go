package axi

import (
	"errors"
	"testing"
	"testing/quick"

	"rvcap/internal/sim"
)

// ramSlave is a trivial backing-store slave for fabric tests.
type ramSlave struct {
	data []byte
	cost sim.Time
}

func (r *ramSlave) Read(p *sim.Proc, addr uint64, buf []byte) error {
	p.Sleep(r.cost)
	copy(buf, r.data[addr:])
	return nil
}

func (r *ramSlave) Write(p *sim.Proc, addr uint64, data []byte) error {
	p.Sleep(r.cost)
	copy(r.data[addr:], data)
	return nil
}

// runProc executes fn as a process and drains the kernel.
func runProc(t *testing.T, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	var end sim.Time
	k.Go("test", func(p *sim.Proc) {
		fn(p)
		end = p.Now()
	})
	k.Run()
	return end
}

func TestCrossbarDecodeAndTransfer(t *testing.T) {
	k := sim.NewKernel()
	x := NewCrossbar(k, "main")
	a := &ramSlave{data: make([]byte, 256)}
	b := &ramSlave{data: make([]byte, 256)}
	x.Map("a", 0x1000, 256, a)
	x.Map("b", 0x2000, 256, b)

	k.Go("m", func(p *sim.Proc) {
		if err := x.Write(p, 0x1010, []byte{1, 2, 3, 4}); err != nil {
			t.Errorf("write a: %v", err)
		}
		if err := x.Write(p, 0x20F0, []byte{9}); err != nil {
			t.Errorf("write b: %v", err)
		}
		var got [4]byte
		if err := x.Read(p, 0x1010, got[:]); err != nil {
			t.Errorf("read a: %v", err)
		}
		if got != [4]byte{1, 2, 3, 4} {
			t.Errorf("read back %v", got)
		}
		if b.data[0xF0] != 9 {
			t.Errorf("slave b byte = %d, want 9", b.data[0xF0])
		}
	})
	k.Run()
}

func TestCrossbarDecodeErrors(t *testing.T) {
	k := sim.NewKernel()
	x := NewCrossbar(k, "main")
	x.Map("a", 0x1000, 256, &ramSlave{data: make([]byte, 256)})

	k.Go("m", func(p *sim.Proc) {
		var b [4]byte
		err := x.Read(p, 0x5000, b[:])
		if !errors.Is(err, ErrDecode) {
			t.Errorf("unmapped read err = %v, want ErrDecode", err)
		}
		// Straddling the end of a region must also DECERR.
		err = x.Read(p, 0x10FE, b[:])
		if !errors.Is(err, ErrDecode) {
			t.Errorf("straddling read err = %v, want ErrDecode", err)
		}
		// Below the first region.
		err = x.Write(p, 0x0, b[:])
		if !errors.Is(err, ErrDecode) {
			t.Errorf("low write err = %v, want ErrDecode", err)
		}
	})
	k.Run()
}

func TestCrossbarOverlapPanics(t *testing.T) {
	k := sim.NewKernel()
	x := NewCrossbar(k, "main")
	x.Map("a", 0x1000, 0x1000, &ramSlave{data: make([]byte, 0x1000)})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Map did not panic")
		}
	}()
	x.Map("b", 0x1800, 0x1000, &ramSlave{data: make([]byte, 0x1000)})
}

func TestCrossbarLatency(t *testing.T) {
	k := sim.NewKernel()
	x := NewCrossbar(k, "main")
	x.Latency = 5
	x.Map("a", 0, 64, &ramSlave{data: make([]byte, 64), cost: 3})
	var took sim.Time
	k.Go("m", func(p *sim.Proc) {
		start := p.Now()
		var b [4]byte
		if err := x.Read(p, 0, b[:]); err != nil {
			t.Errorf("read: %v", err)
		}
		took = p.Now() - start
	})
	k.Run()
	if took != 8 {
		t.Errorf("transaction took %d cycles, want 8 (5 xbar + 3 slave)", took)
	}
}

func TestHelpers32And64(t *testing.T) {
	ram := &ramSlave{data: make([]byte, 64)}
	runProc(t, func(p *sim.Proc) {
		if err := WriteU32(p, ram, 0, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
		v, err := ReadU32(p, ram, 0)
		if err != nil || v != 0xDEADBEEF {
			t.Errorf("ReadU32 = %#x, %v", v, err)
		}
		if err := WriteU64(p, ram, 8, 0x1122334455667788); err != nil {
			t.Fatal(err)
		}
		w, err := ReadU64(p, ram, 8)
		if err != nil || w != 0x1122334455667788 {
			t.Errorf("ReadU64 = %#x, %v", w, err)
		}
		// Little-endian layout on the wire.
		if ram.data[8] != 0x88 || ram.data[15] != 0x11 {
			t.Errorf("byte order: % x", ram.data[8:16])
		}
	})
}

func TestHelperRoundTripQuick(t *testing.T) {
	ram := &ramSlave{data: make([]byte, 16)}
	f := func(v32 uint32, v64 uint64) bool {
		ok := true
		runProc(t, func(p *sim.Proc) {
			WriteU32(p, ram, 0, v32)
			WriteU64(p, ram, 8, v64)
			g32, _ := ReadU32(p, ram, 0)
			g64, _ := ReadU64(p, ram, 8)
			ok = g32 == v32 && g64 == v64
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWidthConverterCost(t *testing.T) {
	ram := &ramSlave{data: make([]byte, 256)}
	wc := NewWidthConverter64To32(ram)
	// 16 bytes: 2 wide beats -> 4 narrow beats: +2 extra, +1 base.
	took := runProc(t, func(p *sim.Proc) {
		if err := wc.Write(p, 0, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	})
	if took != 3 {
		t.Errorf("16-byte write through 64->32 converter took %d, want 3", took)
	}
}

func TestLiteBridgeCracksBursts(t *testing.T) {
	// Count how many discrete accesses the terminal slave sees.
	k := sim.NewKernel()
	var accesses int
	counter := &hookSlave{onAccess: func(n int) {
		accesses++
		if n != 4 {
			t.Errorf("lite access of %d bytes, want 4", n)
		}
	}}
	lb := NewLiteBridge(counter)
	k.Go("m", func(p *sim.Proc) {
		if err := lb.Write(p, 0, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	if accesses != 4 {
		t.Errorf("16-byte burst cracked into %d accesses, want 4", accesses)
	}
}

type hookSlave struct{ onAccess func(n int) }

func (h *hookSlave) Read(p *sim.Proc, addr uint64, buf []byte) error {
	h.onAccess(len(buf))
	return nil
}

func (h *hookSlave) Write(p *sim.Proc, addr uint64, data []byte) error {
	h.onAccess(len(data))
	return nil
}

func TestStreamFIFOOrder(t *testing.T) {
	k := sim.NewKernel()
	s := NewStream(k, "s", 4)
	var got []uint64
	k.Go("prod", func(p *sim.Proc) {
		for i := uint64(0); i < 10; i++ {
			s.Push(p, Beat{Data: i, Keep: FullKeep})
			p.Sleep(1)
		}
	})
	k.Go("cons", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, s.Pop(p).Data)
			p.Sleep(1)
		}
	})
	k.Run()
	for i := uint64(0); i < 10; i++ {
		if got[i] != i {
			t.Fatalf("got %v, want in-order 0..9", got)
		}
	}
	if s.Pushed() != 10 || s.Popped() != 10 {
		t.Errorf("counters pushed=%d popped=%d, want 10/10", s.Pushed(), s.Popped())
	}
}

func TestStreamBackpressure(t *testing.T) {
	k := sim.NewKernel()
	s := NewStream(k, "s", 2)
	var pushDone sim.Time
	k.Go("prod", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			s.Push(p, Beat{Data: uint64(i)})
		}
		pushDone = p.Now()
	})
	k.Go("cons", func(p *sim.Proc) {
		p.Sleep(100)
		for i := 0; i < 4; i++ {
			s.Pop(p)
			p.Sleep(10)
		}
	})
	k.Run()
	// Producer fills 2 beats at t=0, then blocks until the consumer
	// frees slots at t=100 and t=110.
	if pushDone != 110 {
		t.Errorf("producer finished at %d, want 110 (back-pressure)", pushDone)
	}
}

func TestStreamSwitchRouting(t *testing.T) {
	k := sim.NewKernel()
	icap := NewStream(k, "icap", 16)
	rm := NewStream(k, "rm", 16)
	sw := NewStreamSwitch("sw", icap, rm)
	if sw.Selected() != PortRM {
		t.Errorf("reset selection = %v, want RM", sw.Selected())
	}
	done := 0
	count := func() { done++ }
	sw.PushBurstAsync([]Beat{{Data: 1}}, count)
	sw.Select(PortICAP)
	sw.PushBurstAsync([]Beat{{Data: 2}, {Data: 3}}, count)
	sw.Select(PortRM)
	sw.PushBurstAsync([]Beat{{Data: 4}}, count)
	k.Run()
	if done != 3 {
		t.Fatalf("%d bursts completed, want 3", done)
	}
	if rm.Len() != 2 || icap.Len() != 2 {
		t.Fatalf("rm=%d icap=%d beats, want 2/2", rm.Len(), icap.Len())
	}
	dst := make([]Beat, 4)
	icap.PopBurstAsync(dst, func(n int) {
		if n != 2 || dst[0].Data != 2 || dst[1].Data != 3 {
			t.Errorf("icap beats = %v, want data 2, 3", dst[:n])
		}
	})
}

func TestStreamSwitchBadPortPanics(t *testing.T) {
	k := sim.NewKernel()
	sw := NewStreamSwitch("sw", NewStream(k, "a", 1), NewStream(k, "b", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Select of unknown port did not panic")
		}
	}()
	sw.Select(SwitchPort(99))
}

func TestStreamIsolator(t *testing.T) {
	k := sim.NewKernel()
	dst := NewStream(k, "dst", 16)
	g := NewStreamIsolator(dst)
	burst := []Beat{{Data: 1}, {Data: 2}, {Data: 3}}

	g.SetDecoupled(true)
	swallowed := false
	g.PushBurstAsync(burst, func() { swallowed = true })
	if !swallowed {
		t.Fatal("swallowed burst did not complete synchronously")
	}
	if g.Dropped() != 3 || dst.Len() != 0 {
		t.Fatalf("decoupled: dropped=%d delivered=%d, want 3/0", g.Dropped(), dst.Len())
	}

	g.SetDecoupled(false)
	delivered := false
	g.PushBurstAsync(burst[:2], func() { delivered = true })
	k.Run()
	if !delivered || dst.Len() != 2 {
		t.Fatalf("coupled: completed=%v delivered=%d, want true/2", delivered, dst.Len())
	}
	if g.Dropped() != 3 {
		t.Errorf("dropped = %d after a coupled burst, want 3", g.Dropped())
	}
}

func TestMMIsolator(t *testing.T) {
	ram := &ramSlave{data: make([]byte, 16)}
	g := NewIsolator(ram)
	runProc(t, func(p *sim.Proc) {
		if err := g.Write(p, 0, []byte{1, 2, 3, 4}); err != nil {
			t.Errorf("coupled write: %v", err)
		}
		g.SetDecoupled(true)
		if err := g.Write(p, 4, []byte{5, 5, 5, 5}); !errors.Is(err, ErrSlave) {
			t.Errorf("decoupled write err = %v, want ErrSlave", err)
		}
		buf := []byte{0xFF, 0xFF, 0xFF, 0xFF}
		if err := g.Read(p, 0, buf); !errors.Is(err, ErrSlave) {
			t.Errorf("decoupled read err = %v, want ErrSlave", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Errorf("decoupled read returned %v, want zeros", buf)
				break
			}
		}
		g.SetDecoupled(false)
		if err := g.Read(p, 0, buf); err != nil {
			t.Errorf("recoupled read: %v", err)
		}
		if buf[0] != 1 {
			t.Errorf("recoupled read data = %v", buf)
		}
		if g.Blocked() != 2 {
			t.Errorf("blocked = %d, want 2", g.Blocked())
		}
		if ram.data[4] != 0 {
			t.Error("decoupled write leaked through to the slave")
		}
	})
}

func TestRegFileHooksAndAlignment(t *testing.T) {
	rf := NewRegFile("dev", 0x100)
	var wrote uint32
	rf.OnWrite(0x10, func(v uint32) { wrote = v })
	rf.OnRead(0x14, func() uint32 { return 0xCAFE })
	runProc(t, func(p *sim.Proc) {
		if err := WriteU32(p, rf, 0x10, 42); err != nil {
			t.Fatal(err)
		}
		if wrote != 42 {
			t.Errorf("OnWrite saw %d, want 42", wrote)
		}
		if rf.Peek(0x10) != 42 {
			t.Errorf("Peek = %d, want 42", rf.Peek(0x10))
		}
		v, err := ReadU32(p, rf, 0x14)
		if err != nil || v != 0xCAFE {
			t.Errorf("OnRead hook value = %#x, %v", v, err)
		}
		// Unaligned and out-of-range accesses fail.
		var b [4]byte
		if err := rf.Read(p, 0x11, b[:]); !errors.Is(err, ErrSlave) {
			t.Errorf("unaligned read err = %v, want ErrSlave", err)
		}
		if err := rf.Read(p, 0x100, b[:]); !errors.Is(err, ErrDecode) {
			t.Errorf("out-of-range read err = %v, want ErrDecode", err)
		}
		var w [8]byte
		if err := rf.Write(p, 0x10, w[:]); !errors.Is(err, ErrSlave) {
			t.Errorf("8-byte reg write err = %v, want ErrSlave", err)
		}
		// Unhooked registers, up to the last one, hold what Poke stores.
		rf.Poke(0xFC, 7)
		if v, err := ReadU32(p, rf, 0xFC); err != nil || v != 7 {
			t.Errorf("poked last register reads %d, %v", v, err)
		}
	})
	for _, off := range []uint64{0x11, 0x100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Peek(%#x) did not panic", off)
				}
			}()
			rf.Peek(off)
		}()
	}
}

func TestAccessErrorFormatting(t *testing.T) {
	e := &AccessError{Op: "read", Addr: 0x40000000, Err: ErrDecode}
	if e.Error() == "" || !errors.Is(e, ErrDecode) {
		t.Errorf("AccessError broken: %v", e)
	}
}
