package dma

import (
	"bytes"
	"testing"

	"rvcap/internal/axi"
	"rvcap/internal/mem"
	"rvcap/internal/sim"
)

// rig wires a DMA to a DDR and loopback streams.
type rig struct {
	k   *sim.Kernel
	ddr *mem.DDR
	d   *DMA
	out *axi.Stream
	in  *axi.Stream
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	r := &rig{
		k:   k,
		ddr: mem.NewDDR(k, 1<<20),
		d:   New(k, "dma0"),
		out: axi.NewStream(k, "mm2s.out", 64),
		in:  axi.NewStream(k, "s2mm.in", 64),
	}
	r.d.Mem = r.ddr
	r.d.MM2SOut = r.out
	r.d.S2MMIn = r.in
	return r
}

// prog runs fn as the programming master.
func (r *rig) prog(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Go("prog", fn)
	r.k.Run()
}

func TestMM2SMovesBytes(t *testing.T) {
	r := newRig(t)
	payload := make([]byte, 300) // deliberately not burst- or beat-aligned
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	r.ddr.Load(0x1000, payload)

	var got []byte
	r.k.Go("sink", func(p *sim.Proc) {
		for {
			b := r.out.Pop(p)
			for i := 0; i < 8; i++ {
				if b.Keep&(1<<i) != 0 {
					got = append(got, byte(b.Data>>(8*i)))
				}
			}
			p.Sleep(1)
			if b.Last {
				return
			}
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0x1000)
		axi.WriteU32(p, r.d.Regs, MM2SLength, uint32(len(payload)))
	})
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes, payload mismatch", len(got))
	}
	if r.d.MM2SBytes() != uint64(len(payload)) {
		t.Errorf("MM2SBytes = %d", r.d.MM2SBytes())
	}
}

func TestMM2SIgnoredWhenHalted(t *testing.T) {
	r := newRig(t)
	r.prog(t, func(p *sim.Proc) {
		// No RunStop: LENGTH write must not start anything.
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, 64)
	})
	if mm2s, _ := r.d.Transfers(); mm2s != 0 {
		t.Errorf("halted channel started %d transfers", mm2s)
	}
	if r.out.Len() != 0 {
		t.Error("beats appeared from halted channel")
	}
}

func TestMM2SInterruptOnComplete(t *testing.T) {
	r := newRig(t)
	var irqEdges []bool
	r.d.OnMM2SIrq = func(h bool) { irqEdges = append(irqEdges, h) }
	r.ddr.Load(0, make([]byte, 128))

	r.k.Go("sink", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			r.out.Pop(p)
			p.Sleep(1)
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop|CRIOCIrqEn)
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, 128)
	})
	if len(irqEdges) != 1 || !irqEdges[0] {
		t.Fatalf("irq edges = %v, want [true]", irqEdges)
	}
	// SR shows idle + IOC; write-1-to-clear drops the line.
	r.prog(t, func(p *sim.Proc) {
		sr, _ := axi.ReadU32(p, r.d.Regs, MM2SDMASR)
		if sr&SRIOCIrq == 0 || sr&SRIdle == 0 {
			t.Errorf("SR = %#x, want IOC|Idle", sr)
		}
		axi.WriteU32(p, r.d.Regs, MM2SDMASR, SRIOCIrq)
		sr, _ = axi.ReadU32(p, r.d.Regs, MM2SDMASR)
		if sr&SRIOCIrq != 0 {
			t.Errorf("SR after clear = %#x", sr)
		}
	})
	if len(irqEdges) != 2 || irqEdges[1] {
		t.Fatalf("irq edges after clear = %v", irqEdges)
	}
}

func TestMM2SNoInterruptWhenDisabled(t *testing.T) {
	r := newRig(t)
	fired := false
	r.d.OnMM2SIrq = func(h bool) { fired = true }
	r.ddr.Load(0, make([]byte, 64))
	r.k.Go("sink", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			r.out.Pop(p)
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop) // no CRIOCIrqEn
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, 64)
	})
	if fired {
		t.Error("interrupt fired with IOC disabled")
	}
	// But the SR bit still latches for polling mode.
	r.prog(t, func(p *sim.Proc) {
		sr, _ := axi.ReadU32(p, r.d.Regs, MM2SDMASR)
		if sr&SRIOCIrq == 0 {
			t.Errorf("SR = %#x, want IOC latched for polling", sr)
		}
	})
}

func TestS2MMAbsorbsStream(t *testing.T) {
	r := newRig(t)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.k.Go("src", func(p *sim.Proc) {
		for off := 0; off < len(payload); off += 8 {
			var b axi.Beat
			for i := 0; i < 8 && off+i < len(payload); i++ {
				b.Data |= uint64(payload[off+i]) << (8 * i)
				b.Keep |= 1 << i
			}
			b.Last = off+8 >= len(payload)
			r.in.Push(p, b)
			p.Sleep(1)
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, S2MMDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, S2MMDA, 0x2000)
		axi.WriteU32(p, r.d.Regs, S2MMLength, uint32(len(payload)))
	})
	if got := r.ddr.Peek(0x2000, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("DDR contents mismatch after S2MM")
	}
}

func TestS2MMEarlyTLAST(t *testing.T) {
	r := newRig(t)
	// Source sends only 24 bytes then TLAST; LENGTH asked for 100.
	r.k.Go("src", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.in.Push(p, axi.Beat{Data: 0x0807060504030201, Keep: axi.FullKeep, Last: i == 2})
			p.Sleep(1)
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, S2MMDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, S2MMDA, 0)
		axi.WriteU32(p, r.d.Regs, S2MMLength, 100)
	})
	r.prog(t, func(p *sim.Proc) {
		n, _ := axi.ReadU32(p, r.d.Regs, S2MMLength)
		if n != 24 {
			t.Errorf("S2MM LENGTH after TLAST = %d, want 24", n)
		}
	})
	if r.d.S2MMBytes() != 24 {
		t.Errorf("S2MMBytes = %d", r.d.S2MMBytes())
	}
}

func TestResetClearsState(t *testing.T) {
	r := newRig(t)
	var edges []bool
	r.d.OnMM2SIrq = func(h bool) { edges = append(edges, h) }
	r.ddr.Load(0, make([]byte, 8))
	r.k.Go("sink", func(p *sim.Proc) { r.out.Pop(p) })
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop|CRIOCIrqEn)
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, 8)
	})
	if len(edges) != 1 || !edges[0] {
		t.Fatalf("setup irq edges = %v", edges)
	}
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRReset)
		sr, _ := axi.ReadU32(p, r.d.Regs, MM2SDMASR)
		if sr != SRHalted {
			t.Errorf("SR after reset = %#x, want Halted", sr)
		}
		cr, _ := axi.ReadU32(p, r.d.Regs, MM2SDMACR)
		if cr != 0 {
			t.Errorf("CR after reset = %#x", cr)
		}
	})
	if len(edges) != 2 || edges[1] {
		t.Fatalf("reset did not drop irq: %v", edges)
	}
}

func TestMM2SStreamingThroughputPipelined(t *testing.T) {
	// With a fast consumer, MM2S throughput is DDR-fetch-bound:
	// each 128-byte burst costs latency(11) + 16 beats = 27 cycles,
	// i.e. ~1.69 cycles/beat. This is what keeps the ICAP (2
	// cycles/beat drain) the bottleneck in reconfiguration mode.
	r := newRig(t)
	const total = 64 * 1024
	r.ddr.Load(0, make([]byte, total))
	var done sim.Time
	r.k.Go("sink", func(p *sim.Proc) {
		for {
			b := r.out.Pop(p)
			if b.Last {
				done = p.Now()
				return
			}
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, total)
	})
	bursts := total / 128
	expected := sim.Time(bursts * 27)
	// Allow programming overhead slack.
	if done < expected || done > expected+100 {
		t.Errorf("MM2S of %d bytes took %d cycles, want ~%d", total, done, expected)
	}
}

func TestBothChannelsConcurrently(t *testing.T) {
	// A loopback: MM2S reads a block while S2MM writes it back
	// elsewhere; the DDR's separate read/write ports let them overlap.
	r := newRig(t)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	r.ddr.Load(0, payload)
	r.k.Go("loop", func(p *sim.Proc) {
		for {
			b := r.out.Pop(p)
			r.in.Push(p, b)
			if b.Last {
				return
			}
		}
	})
	r.prog(t, func(p *sim.Proc) {
		axi.WriteU32(p, r.d.Regs, S2MMDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, S2MMDA, 0x10000)
		axi.WriteU32(p, r.d.Regs, S2MMLength, uint32(len(payload)))
		axi.WriteU32(p, r.d.Regs, MM2SDMACR, CRRunStop)
		axi.WriteU32(p, r.d.Regs, MM2SSA, 0)
		axi.WriteU32(p, r.d.Regs, MM2SLength, uint32(len(payload)))
	})
	if got := r.ddr.Peek(0x10000, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("loopback corrupted data")
	}
}

// s2mmExpect is the byte-wise model of the S2MM unpack: kept bytes in
// lane order, stopping at length bytes or after the TLAST beat.
func s2mmExpect(beats []axi.Beat, length int) []byte {
	var out []byte
	for _, b := range beats {
		for i := 0; i < 8 && len(out) < length; i++ {
			if b.Keep&(1<<i) != 0 {
				out = append(out, byte(b.Data>>(8*i)))
			}
		}
		if b.Last || len(out) >= length {
			break
		}
	}
	return out
}

// fullBeats packs n full-Keep beats of distinct bytes starting at seed.
func fullBeats(n int, seed byte) []axi.Beat {
	beats := make([]axi.Beat, n)
	for j := range beats {
		for i := 0; i < 8; i++ {
			beats[j].Data |= uint64(seed+byte(8*j+i)*3) << (8 * i)
		}
		beats[j].Keep = axi.FullKeep
	}
	return beats
}

// TestS2MMUnpackMatchesByteModel streams beat sequences that must leave
// the full-beat fast path and checks DDR contents, S2MMBytes and the
// final LENGTH against the byte-wise model.
func TestS2MMUnpackMatchesByteModel(t *testing.T) {
	const da = 0x4000
	sparse := func(beats []axi.Beat, at int, keep uint8) []axi.Beat {
		beats[at].Keep = keep
		return beats
	}
	last := func(beats []axi.Beat) []axi.Beat {
		beats[len(beats)-1].Last = true
		return beats
	}
	cases := []struct {
		name   string
		da     uint64
		beats  []axi.Beat
		length int
	}{
		// 26 full beats, LENGTH ends three bytes into the last one.
		{"length ends mid-beat", da, last(fullBeats(26, 1)), 203},
		{"sparse keep mid-stream", da, last(sparse(fullBeats(12, 7), 5, 0b10100101)), 1000},
		{"TLAST on a partial beat", da, last(sparse(fullBeats(9, 3), 8, 0b00000111)), 1000},
		// A sparse beat knocks the flush buffer off the 8-byte grid, so
		// the first 128-byte burst carries 132 bytes, and the
		// unaligned destination straddles 128-byte lines throughout.
		{"burst boundary crossing", da + 0x3c, last(sparse(fullBeats(40, 9), 3, 0b00001111)), 1000},
		{"burst boundary crossing, length cut", da + 0x3c, sparse(fullBeats(40, 9), 3, 0b00001111), 250},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			want := s2mmExpect(tc.beats, tc.length)
			r.k.Go("src", func(p *sim.Proc) {
				for _, b := range tc.beats {
					r.in.Push(p, b)
				}
			})
			r.prog(t, func(p *sim.Proc) {
				axi.WriteU32(p, r.d.Regs, S2MMDMACR, CRRunStop)
				axi.WriteU32(p, r.d.Regs, S2MMDA, uint32(tc.da))
				axi.WriteU32(p, r.d.Regs, S2MMLength, uint32(tc.length))
			})
			if got := r.ddr.Peek(tc.da, len(want)+8); !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], make([]byte, 8)) {
				t.Errorf("DDR = %x, want %x then zeros", got, want)
			}
			if r.d.S2MMBytes() != uint64(len(want)) {
				t.Errorf("S2MMBytes = %d, want %d", r.d.S2MMBytes(), len(want))
			}
			r.prog(t, func(p *sim.Proc) {
				if n, _ := axi.ReadU32(p, r.d.Regs, S2MMLength); n != uint32(len(want)) {
					t.Errorf("LENGTH = %d, want %d", n, len(want))
				}
			})
		})
	}
}
