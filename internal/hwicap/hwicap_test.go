package hwicap

import (
	"testing"

	"rvcap/internal/axi"
	"rvcap/internal/bitstream"
	"rvcap/internal/fpga"
	"rvcap/internal/sim"
)

func newRig(t *testing.T) (*sim.Kernel, *fpga.Fabric, *fpga.Partition, *HWICAP) {
	t.Helper()
	k := sim.NewKernel()
	fab := fpga.NewFabric(fpga.NewKintex7())
	part, err := fpga.AddDefaultPartition(fab)
	if err != nil {
		t.Fatal(err)
	}
	h := New(k, fpga.NewICAP(fab))
	return k, fab, part, h
}

func TestFIFOVacancyAndLevel(t *testing.T) {
	k, _, _, h := newRig(t)
	k.Go("m", func(p *sim.Proc) {
		v, _ := axi.ReadU32(p, h.Regs, WFV)
		if v != DefaultFIFODepth {
			t.Errorf("empty vacancy = %d, want %d", v, DefaultFIFODepth)
		}
		for i := 0; i < 10; i++ {
			axi.WriteU32(p, h.Regs, WF, uint32(i))
		}
		v, _ = axi.ReadU32(p, h.Regs, WFV)
		if v != DefaultFIFODepth-10 {
			t.Errorf("vacancy = %d, want %d", v, DefaultFIFODepth-10)
		}
		if h.FIFOLevel() != 10 {
			t.Errorf("level = %d", h.FIFOLevel())
		}
	})
	k.Run()
}

func TestFIFOOverflowCounted(t *testing.T) {
	k, _, _, h := newRig(t)
	h.FIFODepth = 4
	k.Go("m", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			axi.WriteU32(p, h.Regs, WF, uint32(i))
		}
	})
	k.Run()
	if h.Overflows() != 2 {
		t.Errorf("overflows = %d, want 2", h.Overflows())
	}
	if h.FIFOLevel() != 4 {
		t.Errorf("level = %d, want 4", h.FIFOLevel())
	}
}

func TestDrainTransfersToICAP(t *testing.T) {
	k, _, _, h := newRig(t)
	var doneAt sim.Time
	k.Go("m", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		}
		start := p.Now()
		axi.WriteU32(p, h.Regs, CR, CRWrite)
		// Poll done as the Xilinx driver does.
		for {
			cr, _ := axi.ReadU32(p, h.Regs, CR)
			if cr&CRWrite == 0 {
				break
			}
			p.Sleep(1)
		}
		doneAt = p.Now() - start
	})
	k.Run()
	if h.Words() != 100 {
		t.Errorf("words to ICAP = %d, want 100", h.Words())
	}
	// Drain is 1 word/cycle: ~100 cycles plus poll granularity.
	if doneAt < 100 || doneAt > 120 {
		t.Errorf("drain of 100 words took %d cycles", doneAt)
	}
	if h.FIFOLevel() != 0 {
		t.Errorf("FIFO not empty after drain: %d", h.FIFOLevel())
	}
}

func TestStatusRegister(t *testing.T) {
	k, _, _, h := newRig(t)
	k.Go("m", func(p *sim.Proc) {
		sr, _ := axi.ReadU32(p, h.Regs, SR)
		if sr&SRDone == 0 || sr&SREOS == 0 {
			t.Errorf("idle SR = %#x, want Done|EOS", sr)
		}
		axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		axi.WriteU32(p, h.Regs, CR, CRWrite)
		sr, _ = axi.ReadU32(p, h.Regs, SR)
		if sr&SRDone != 0 {
			t.Errorf("busy SR = %#x, Done set mid-drain", sr)
		}
	})
	k.Run()
}

func TestFIFOClearAndReset(t *testing.T) {
	k, _, _, h := newRig(t)
	k.Go("m", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			axi.WriteU32(p, h.Regs, WF, uint32(i))
		}
		axi.WriteU32(p, h.Regs, CR, CRFIFOClear)
		if h.FIFOLevel() != 0 {
			t.Errorf("level after clear = %d", h.FIFOLevel())
		}
		axi.WriteU32(p, h.Regs, WF, 1)
		axi.WriteU32(p, h.Regs, CR, CRSWReset)
		if h.FIFOLevel() != 0 {
			t.Errorf("level after reset = %d", h.FIFOLevel())
		}
	})
	k.Run()
	if h.Words() != 0 {
		t.Errorf("words leaked to ICAP: %d", h.Words())
	}
}

func TestInterruptOnDone(t *testing.T) {
	k, _, _, h := newRig(t)
	var edges []bool
	h.OnIrq = func(hi bool) { edges = append(edges, hi) }
	k.Go("m", func(p *sim.Proc) {
		axi.WriteU32(p, h.Regs, GIER, 1)
		axi.WriteU32(p, h.Regs, IPIER, IntrDone)
		axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		axi.WriteU32(p, h.Regs, CR, CRWrite)
		p.Sleep(10)
		isr, _ := axi.ReadU32(p, h.Regs, IPISR)
		if isr&IntrDone == 0 {
			t.Errorf("ISR = %#x, want done", isr)
		}
		axi.WriteU32(p, h.Regs, IPISR, IntrDone)
	})
	k.Run()
	if len(edges) != 2 || !edges[0] || edges[1] {
		t.Errorf("irq edges = %v", edges)
	}
}

func TestInterruptSuppressedWhenGlobalDisabled(t *testing.T) {
	// The paper's driver "disables the global interrupt signal"
	// (init_icap, Listing 2) and polls instead.
	k, _, _, h := newRig(t)
	fired := false
	h.OnIrq = func(bool) { fired = true }
	k.Go("m", func(p *sim.Proc) {
		axi.WriteU32(p, h.Regs, GIER, 0)
		axi.WriteU32(p, h.Regs, IPIER, IntrDone)
		axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		axi.WriteU32(p, h.Regs, CR, CRWrite)
		p.Sleep(10)
	})
	k.Run()
	if fired {
		t.Error("interrupt fired with GIER=0")
	}
}

func TestFullBitstreamThroughHWICAP(t *testing.T) {
	// End-to-end: chunked keyhole writes of a real partial bitstream
	// activate the module, mirroring Listing 2's fill/flush loop.
	k, fab, part, h := newRig(t)
	im, err := bitstream.Partial(fab.Dev, part, "sobel", bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bitstream.Register(fab, im)
	k.Go("driver", func(p *sim.Proc) {
		i := 0
		for i < len(im.Words) {
			vac, _ := axi.ReadU32(p, h.Regs, WFV)
			for n := uint32(0); n < vac && i < len(im.Words); n++ {
				axi.WriteU32(p, h.Regs, WF, im.Words[i])
				i++
			}
			axi.WriteU32(p, h.Regs, CR, CRWrite)
			for {
				cr, _ := axi.ReadU32(p, h.Regs, CR)
				if cr&CRWrite == 0 {
					break
				}
				p.Sleep(1)
			}
		}
	})
	k.Run()
	if h.Overflows() != 0 {
		t.Errorf("driver overflowed the FIFO %d times", h.Overflows())
	}
	if part.Active() != "sobel" {
		t.Fatalf("module not activated: %q", part.Active())
	}
}

func TestReadbackThroughRegisters(t *testing.T) {
	// Unit-level readback: command sequence via WF, then SZ + CR.Read,
	// then drain RF.
	k, fab, part, h := newRig(t)
	// Configure two frames directly.
	f0 := make([]uint32, fpga.FrameWords)
	f1 := make([]uint32, fpga.FrameWords)
	for i := range f0 {
		f0[i] = 0x1000 + uint32(i)
		f1[i] = 0x2000 + uint32(i)
	}
	first := part.Frames()[0]
	fab.Mem.WriteFrame(first, f0)
	fab.Mem.WriteFrame(first+1, f1)

	far, _ := fab.Dev.IndexToFAR(first)
	cmds := []uint32{
		fpga.DummyWord, fpga.SyncWord, fpga.NoopWord,
		fpga.Type1Write(fpga.RegFAR, 1), far,
		fpga.Type1Write(fpga.RegCMD, 1), fpga.CmdRCFG,
		fpga.Type1Read(fpga.RegFDRO, 0), fpga.Type2Read(2 * fpga.FrameWords),
	}
	var got []uint32
	k.Go("sw", func(p *sim.Proc) {
		for _, w := range cmds {
			axi.WriteU32(p, h.Regs, WF, w)
		}
		axi.WriteU32(p, h.Regs, CR, CRWrite)
		for {
			cr, _ := axi.ReadU32(p, h.Regs, CR)
			if cr&CRWrite == 0 {
				break
			}
			p.Sleep(1)
		}
		axi.WriteU32(p, h.Regs, SZ, uint32(2*fpga.FrameWords))
		sz, _ := axi.ReadU32(p, h.Regs, SZ)
		if sz != uint32(2*fpga.FrameWords) {
			t.Errorf("SZ readback = %d", sz)
		}
		axi.WriteU32(p, h.Regs, CR, CRRead)
		for {
			cr, _ := axi.ReadU32(p, h.Regs, CR)
			if cr&CRRead == 0 {
				break
			}
			if !h.Busy() {
				t.Error("Busy false while CR shows read")
			}
			p.Sleep(1)
		}
		occ, _ := axi.ReadU32(p, h.Regs, RFO)
		if occ != uint32(2*fpga.FrameWords) {
			t.Errorf("RFO = %d, want %d", occ, 2*fpga.FrameWords)
		}
		for i := 0; i < 2*fpga.FrameWords; i++ {
			w, _ := axi.ReadU32(p, h.Regs, RF)
			got = append(got, w)
		}
		// Empty RF reads as all-ones.
		w, _ := axi.ReadU32(p, h.Regs, RF)
		if w != 0xFFFFFFFF {
			t.Errorf("empty RF = %#x", w)
		}
	})
	k.Run()
	if h.ReadWords() != uint64(2*fpga.FrameWords) {
		t.Errorf("ReadWords = %d", h.ReadWords())
	}
	for i := 0; i < fpga.FrameWords; i++ {
		if got[i] != f0[i] || got[fpga.FrameWords+i] != f1[i] {
			t.Fatalf("readback word %d mismatch", i)
		}
	}
}

func TestReadbackShortStream(t *testing.T) {
	// SZ larger than the available readback data: the engine stops
	// short and RFO exposes the shortfall.
	k, _, _, h := newRig(t)
	k.Go("sw", func(p *sim.Proc) {
		axi.WriteU32(p, h.Regs, SZ, 16)
		axi.WriteU32(p, h.Regs, CR, CRRead)
		p.Sleep(100)
		occ, _ := axi.ReadU32(p, h.Regs, RFO)
		if occ != 0 {
			t.Errorf("RFO = %d with no readback data queued", occ)
		}
	})
	k.Run()
}

func TestPushesDuringDrainKeepOrder(t *testing.T) {
	// The driver keeps writing while the engine drains, so pushes land
	// in a FIFO whose head has moved: the live words slide down inside
	// the one backing array and must reach the ICAP in order (a
	// reordered word breaks the bitstream CRC and the module never
	// activates).
	k, fab, part, h := newRig(t)
	im, err := bitstream.Partial(fab.Dev, part, "sobel", bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bitstream.Register(fab, im)
	k.Go("driver", func(p *sim.Proc) {
		i := 0
		for i < len(im.Words) {
			vac, _ := axi.ReadU32(p, h.Regs, WFV)
			for n := uint32(0); n < vac && i < len(im.Words); n++ {
				axi.WriteU32(p, h.Regs, WF, im.Words[i])
				i++
			}
			if cr, _ := axi.ReadU32(p, h.Regs, CR); cr&CRWrite == 0 {
				axi.WriteU32(p, h.Regs, CR, CRWrite)
			}
		}
		for h.Busy() {
			p.Sleep(1)
		}
	})
	k.Run()
	if h.Overflows() != 0 {
		t.Errorf("driver overflowed the FIFO %d times", h.Overflows())
	}
	if h.Words() != uint64(len(im.Words)) {
		t.Errorf("words to ICAP = %d, want %d", h.Words(), len(im.Words))
	}
	if part.Active() != "sobel" {
		t.Fatalf("module not activated: %q", part.Active())
	}
}

func TestFIFODepthSetAfterNew(t *testing.T) {
	// FIFODepth is a plain field the ablations change after New; the
	// backing array follows it up, and vacancy/overflow follow it down.
	k, _, _, h := newRig(t)
	h.FIFODepth = 4
	k.Go("m", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		}
		axi.WriteU32(p, h.Regs, CR, CRFIFOClear)
		h.FIFODepth = 2 * DefaultFIFODepth
		for i := 0; i < 2*DefaultFIFODepth+1; i++ {
			axi.WriteU32(p, h.Regs, WF, fpga.DummyWord)
		}
		if v, _ := axi.ReadU32(p, h.Regs, WFV); v != 0 {
			t.Errorf("vacancy of a full deepened FIFO = %d, want 0", v)
		}
	})
	k.Run()
	if h.Overflows() != 1 {
		t.Errorf("overflows = %d, want 1", h.Overflows())
	}
	if h.FIFOLevel() != 2*DefaultFIFODepth {
		t.Errorf("level = %d, want %d", h.FIFOLevel(), 2*DefaultFIFODepth)
	}
}

// TestWarmFillAndDrainZeroAlloc is the keyhole's steady state: once the
// write FIFO has its FIFODepth-word backing array, a full fill, a drain
// and pushes landing mid-drain reuse it and the bound drain step.
func TestWarmFillAndDrainZeroAlloc(t *testing.T) {
	k, _, _, h := newRig(t)
	// By cycle 20 the engine has taken two 16-word chunks: refill them.
	more := func() {
		for i := 0; i < 32; i++ {
			h.pushWF(fpga.DummyWord)
		}
	}
	rounds := 0
	round := func() {
		for i := 0; i < h.FIFODepth; i++ {
			h.pushWF(fpga.DummyWord)
		}
		h.writeCR(CRWrite)
		k.Schedule(20, more) // the head has moved and the array is full
		k.Run()
		rounds++
	}
	round() // warm the FIFO, bucket and ICAP buffers
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("warm fill and drain allocates %.1f allocs per round, want 0", n)
	}
	if want := uint64(rounds * (DefaultFIFODepth + 32)); h.Words() != want {
		t.Errorf("words to ICAP = %d, want %d", h.Words(), want)
	}
	if h.FIFOLevel() != 0 || h.Overflows() != 0 {
		t.Errorf("level %d, overflows %d after drain", h.FIFOLevel(), h.Overflows())
	}
}
