// Package hwicap models the Xilinx AXI_HWICAP IP core (PG134), the
// vendor DPR controller the paper deploys as its baseline (§III-C):
// an AXI4-Lite slave with a write FIFO feeding the ICAP primitive
// through a keyhole register. The paper's two modifications are
// reflected here: the write FIFO is resized to 1024 words, and the IP
// sits behind 64→32-bit width and AXI4→AXI4-Lite protocol converters
// (wired in internal/soc).
//
// The IP's throughput ceiling equals the ICAP's (one word per cycle),
// but in this deployment the processor feeds the FIFO with uncached
// stores, which is why the paper measures only 8.23 MB/s through it.
package hwicap

import (
	"rvcap/internal/axi"
	"rvcap/internal/fpga"
	"rvcap/internal/sim"
)

// Register offsets (PG134).
const (
	GIER        = 0x01C // global interrupt enable
	IPISR       = 0x020 // interrupt status
	IPIER       = 0x028 // interrupt enable
	WF          = 0x100 // write FIFO keyhole
	RF          = 0x104 // read FIFO
	SZ          = 0x108 // transfer size (readback)
	CR          = 0x10C // control
	SR          = 0x110 // status
	WFV         = 0x114 // write FIFO vacancy
	RFO         = 0x118 // read FIFO occupancy
	RegFileSize = 0x200
)

// CR bits.
const (
	CRWrite     = 1 << 0
	CRRead      = 1 << 1
	CRFIFOClear = 1 << 2
	CRSWReset   = 1 << 3
	CRAbort     = 1 << 4
)

// SR bits.
const (
	SRDone = 1 << 0 // transfer engine idle
	SREOS  = 1 << 2 // end of startup
)

// IPISR bits.
const IntrDone = 1 << 0

// DefaultFIFODepth is the paper's resized write FIFO: "we re-sized the
// internal write FIFO of the HWICAP module to 1024 to improve the time
// transfer" (§III-C).
const DefaultFIFODepth = 1024

// HWICAP is the AXI_HWICAP IP model.
type HWICAP struct {
	k    *sim.Kernel
	icap *fpga.ICAP

	// Regs is the AXI4-Lite programming interface.
	Regs *axi.RegFile
	// FIFODepth is the write FIFO capacity in words.
	FIFODepth int
	// OnIrq reports interrupt line changes (done interrupt).
	OnIrq func(high bool)

	// fifo[head:] is the write FIFO. The backing array holds FIFODepth
	// words and is reused across fills: a drained FIFO rewinds to its
	// start, and a push that reaches the end slides the live words down
	// (see makeRoom), so a warm fill and drain allocates nothing.
	fifo      []uint32
	head      int
	drainStep func()
	readFIFO  []uint32
	size      uint32 // SZ register: readback word count
	busy      bool
	busyOp    uint32 // CRWrite or CRRead while busy
	gie       bool
	ier       uint32
	isr       uint32
	overflows uint64
	words     uint64
	rdWords   uint64
}

// New returns a HWICAP feeding the given ICAP engine.
func New(k *sim.Kernel, icap *fpga.ICAP) *HWICAP {
	h := &HWICAP{k: k, icap: icap, FIFODepth: DefaultFIFODepth}
	h.drainStep = h.drain
	h.Regs = axi.NewRegFile("hwicap.regs", RegFileSize)
	h.wireRegs()
	return h
}

func (h *HWICAP) wireRegs() {
	r := h.Regs
	r.OnWrite(WF, h.pushWF)
	r.OnRead(WFV, func() uint32 { return uint32(h.FIFODepth - h.FIFOLevel()) })
	r.OnRead(RFO, func() uint32 { return uint32(len(h.readFIFO)) })
	r.OnRead(RF, h.popRF)
	r.OnWrite(SZ, func(v uint32) { h.size = v })
	r.OnRead(SZ, func() uint32 { return h.size })
	r.OnWrite(CR, h.writeCR)
	r.OnRead(CR, func() uint32 {
		if h.busy {
			return h.busyOp
		}
		return 0
	})
	r.OnRead(SR, func() uint32 {
		v := uint32(SREOS)
		if !h.busy {
			v |= SRDone
		}
		return v
	})
	r.OnWrite(GIER, func(v uint32) { h.gie = v&1 != 0 })
	r.OnWrite(IPIER, func(v uint32) { h.ier = v })
	r.OnRead(IPISR, func() uint32 { return h.isr })
	r.OnWrite(IPISR, func(v uint32) { // write-1-to-clear
		had := h.isr
		h.isr &^= v
		if had != 0 && h.isr == 0 && h.OnIrq != nil && h.irqEnabled() {
			h.OnIrq(false)
		}
	})
}

func (h *HWICAP) irqEnabled() bool { return h.gie && h.ier&IntrDone != 0 }

// pushWF accepts one keyhole word. Words written while the FIFO is full
// are lost (the IP has no back-pressure on the register interface); the
// model counts them so tests can assert the driver never overflows.
func (h *HWICAP) pushWF(v uint32) {
	if h.FIFOLevel() >= h.FIFODepth {
		h.overflows++
		return
	}
	if len(h.fifo) == cap(h.fifo) {
		h.makeRoom()
	}
	h.fifo = append(h.fifo, v)
}

// makeRoom frees the tail of a full backing array for the next push:
// the live words move to its start, into a FIFODepth-word array the
// first time (or after FIFODepth grew).
func (h *HWICAP) makeRoom() {
	live := h.fifo[h.head:]
	if cap(h.fifo) < h.FIFODepth {
		buf := make([]uint32, len(live), h.FIFODepth)
		copy(buf, live)
		h.fifo = buf
	} else {
		h.fifo = h.fifo[:copy(h.fifo, live)]
	}
	h.head = 0
}

// clearFIFO empties the write FIFO, keeping its backing array.
func (h *HWICAP) clearFIFO() {
	h.fifo = h.fifo[:0]
	h.head = 0
}

func (h *HWICAP) writeCR(v uint32) {
	if v&CRSWReset != 0 || v&CRAbort != 0 {
		h.clearFIFO()
		h.readFIFO = h.readFIFO[:0]
		h.busy = false
		if v&CRAbort != 0 {
			// The abort sequence propagates to the ICAP packet engine.
			h.icap.Abort()
		}
		return
	}
	if v&CRFIFOClear != 0 {
		h.clearFIFO()
	}
	if v&CRWrite != 0 && !h.busy {
		h.startDrain()
	}
	if v&CRRead != 0 && !h.busy {
		h.startReadback()
	}
}

// popRF dequeues one readback word (0xFFFFFFFF when empty, like reading
// an empty FIFO on the real IP).
func (h *HWICAP) popRF() uint32 {
	if len(h.readFIFO) == 0 {
		return 0xFFFFFFFF
	}
	w := h.readFIFO[0]
	h.readFIFO = h.readFIFO[1:]
	return w
}

// startReadback launches the readback engine: SZ words are pulled from
// the ICAP's readback stream into the read FIFO at one word per cycle.
// The readback command sequence (RCFG, FAR, FDRO read request) must
// have been written through the keyhole first, as the Xilinx driver
// does.
func (h *HWICAP) startReadback() {
	h.busy = true
	h.busyOp = CRRead
	// Continuation state machine: one scheduled event per word, at the
	// cycles the process implementation woke on.
	n := uint32(0)
	var step func()
	step = func() {
		if n < h.size {
			if w, ok := h.icap.ReadWord(); ok {
				h.readFIFO = append(h.readFIFO, w)
				h.rdWords++
				n++
				h.k.Schedule(1, step)
				return
			}
			// Stream exhausted: stop short, RFO reveals it.
		}
		h.busy = false
		h.isr |= IntrDone
		if h.OnIrq != nil && h.irqEnabled() {
			h.OnIrq(true)
		}
	}
	h.k.Schedule(0, step)
}

// ReadWords returns the total words read back from the ICAP.
func (h *HWICAP) ReadWords() uint64 { return h.rdWords }

// startDrain launches the transfer engine: one FIFO word per cycle into
// the ICAP until the FIFO is empty (words arriving mid-drain are
// included, which is how the keyhole interface behaves).
func (h *HWICAP) startDrain() {
	h.busy = true
	h.busyOp = CRWrite
	// Continuation state machine with the process version's exact
	// pacing: drain in chunks, charging one cycle per word in a single
	// scheduled delay. The FIFO level as seen by concurrent software
	// polls of WFV differs transiently by at most the chunk size, and
	// the driver writes against the vacancy it reads, so no words are
	// lost and the per-word throughput is unchanged. Words arriving
	// mid-drain are included, which is how the keyhole interface
	// behaves.
	h.k.Schedule(0, h.drainStep)
}

// drain is one step of the transfer engine started by startDrain.
func (h *HWICAP) drain() {
	if n := h.FIFOLevel(); n > 0 {
		if n > 16 {
			n = 16
		}
		h.icap.WriteWords(h.fifo[h.head : h.head+n])
		h.head += n
		if h.head == len(h.fifo) {
			h.clearFIFO()
		}
		h.words += uint64(n)
		h.k.Schedule(sim.Time(n), h.drainStep)
		return
	}
	h.busy = false
	h.isr |= IntrDone
	if h.OnIrq != nil && h.irqEnabled() {
		h.OnIrq(true)
	}
}

// Busy reports whether the transfer engine is draining.
func (h *HWICAP) Busy() bool { return h.busy }

// FIFOLevel returns the current write FIFO occupancy in words.
func (h *HWICAP) FIFOLevel() int { return len(h.fifo) - h.head }

// Overflows returns how many keyhole words were lost to a full FIFO.
func (h *HWICAP) Overflows() uint64 { return h.overflows }

// Words returns the total words transferred to the ICAP.
func (h *HWICAP) Words() uint64 { return h.words }
