// Package dma models the Xilinx AXI DMA IP in direct register mode, as
// instantiated inside the RV-CAP controller (paper §III-B item 1): a
// 64-bit memory-mapped master reading from / writing to the SoC DDR
// through the additional crossbar, an MM2S read channel streaming onto
// the AXI-Stream switch, an S2MM write channel absorbing result streams
// from the reconfigurable module, an AXI4-Lite control interface, and
// per-channel completion interrupts wired to the PLIC.
package dma

import (
	"encoding/binary"
	"fmt"

	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

// Register offsets (Xilinx AXI DMA direct register mode, PG021).
const (
	MM2SDMACR   = 0x00
	MM2SDMASR   = 0x04
	MM2SSA      = 0x18
	MM2SSAMSB   = 0x1C
	MM2SLength  = 0x28
	S2MMDMACR   = 0x30
	S2MMDMASR   = 0x34
	S2MMDA      = 0x48
	S2MMDAMSB   = 0x4C
	S2MMLength  = 0x58
	RegFileSize = 0x60
)

// DMACR bits.
const (
	CRRunStop  = 1 << 0
	CRReset    = 1 << 2
	CRIOCIrqEn = 1 << 12
)

// DMASR bits.
const (
	SRHalted = 1 << 0
	SRIdle   = 1 << 1
	// SRDMAIntErr latches when a transfer errors out (PG021's
	// DMAIntErr). Write-1-to-clear, like the interrupt bit.
	SRDMAIntErr = 1 << 4
	SRIOCIrq    = 1 << 12
)

// Fault is an injected transfer fault: an arbitration stall before the
// first beat and/or a transfer error after only part of the payload.
type Fault struct {
	Stall sim.Time
	Fail  bool
}

// DefaultBurstBeats is the paper's configuration: "The maximum AXI burst
// size of the DMA controller is set to 16" (§IV-A), i.e. 16 beats of 8
// bytes = 128-byte bursts.
const DefaultBurstBeats = 16

// channel holds the architectural state of one DMA direction.
type channel struct {
	name    string
	cr      uint32
	sr      uint32
	addr    uint64
	length  uint32
	busy    bool
	started uint64
	bytes   uint64
}

func (c *channel) running() bool { return c.cr&CRRunStop != 0 }

// DMA is the AXI DMA engine.
type DMA struct {
	k    *sim.Kernel
	name string

	// Regs is the AXI4-Lite programming interface (behind the width and
	// protocol converters in the SoC wiring).
	Regs *axi.RegFile
	// Mem is the 64-bit master port toward DDR.
	Mem axi.Slave
	// MM2SOut receives the read channel's stream (the AXIS switch).
	MM2SOut axi.StreamSink
	// S2MMIn supplies the write channel's stream (from the RM).
	S2MMIn axi.StreamSource

	// OnMM2SIrq / OnS2MMIrq report interrupt line changes (wired to two
	// PLIC sources).
	OnMM2SIrq func(high bool)
	OnS2MMIrq func(high bool)

	// BurstBeats is the maximum burst length in 8-byte beats.
	BurstBeats int

	// Inject, when set, is consulted at the start of every MM2S
	// transfer with the channel's transfer sequence number (0-based).
	// A failed transfer moves roughly half its payload, then latches
	// SRDMAIntErr and completes with the usual interrupt — software
	// sees a completion whose status carries the error.
	Inject func(xfer uint64) Fault

	mm2s channel
	s2mm channel

	// One pooled transfer state machine per channel: the busy flag
	// serialises transfers within a direction, so each channel reuses a
	// single xfer record (buffers and continuation closures bound once)
	// and the steady state allocates nothing per transfer.
	mm2sX *mm2sXfer
	s2mmX *s2mmXfer
}

// New returns a DMA whose master port and stream endpoints are wired by
// the caller before any transfer starts.
func New(k *sim.Kernel, name string) *DMA {
	d := &DMA{k: k, name: name, BurstBeats: DefaultBurstBeats}
	d.mm2s = channel{name: name + ".mm2s", sr: SRHalted}
	d.s2mm = channel{name: name + ".s2mm", sr: SRHalted}
	d.Regs = axi.NewRegFile(name+".regs", RegFileSize)
	d.wireRegs()
	return d
}

func (d *DMA) wireRegs() {
	r := d.Regs
	r.OnWrite(MM2SDMACR, func(v uint32) { d.writeCR(&d.mm2s, v, d.OnMM2SIrq) })
	r.OnRead(MM2SDMACR, func() uint32 { return d.mm2s.cr })
	r.OnWrite(MM2SDMASR, func(v uint32) { d.writeSR(&d.mm2s, v, d.OnMM2SIrq) })
	r.OnRead(MM2SDMASR, func() uint32 { return d.mm2s.sr })
	r.OnWrite(MM2SSA, func(v uint32) { d.mm2s.addr = d.mm2s.addr&^uint64(0xFFFFFFFF) | uint64(v) })
	r.OnWrite(MM2SSAMSB, func(v uint32) { d.mm2s.addr = d.mm2s.addr&0xFFFFFFFF | uint64(v)<<32 })
	r.OnWrite(MM2SLength, func(v uint32) { d.startMM2S(v) })
	r.OnRead(MM2SLength, func() uint32 { return d.mm2s.length })

	r.OnWrite(S2MMDMACR, func(v uint32) { d.writeCR(&d.s2mm, v, d.OnS2MMIrq) })
	r.OnRead(S2MMDMACR, func() uint32 { return d.s2mm.cr })
	r.OnWrite(S2MMDMASR, func(v uint32) { d.writeSR(&d.s2mm, v, d.OnS2MMIrq) })
	r.OnRead(S2MMDMASR, func() uint32 { return d.s2mm.sr })
	r.OnWrite(S2MMDA, func(v uint32) { d.s2mm.addr = d.s2mm.addr&^uint64(0xFFFFFFFF) | uint64(v) })
	r.OnWrite(S2MMDAMSB, func(v uint32) { d.s2mm.addr = d.s2mm.addr&0xFFFFFFFF | uint64(v)<<32 })
	r.OnWrite(S2MMLength, func(v uint32) { d.startS2MM(v) })
	r.OnRead(S2MMLength, func() uint32 { return d.s2mm.length })
}

func (d *DMA) writeCR(c *channel, v uint32, irq func(bool)) {
	if v&CRReset != 0 {
		// Soft reset: halt, clear status and pending interrupt.
		c.cr = 0
		hadIrq := c.sr&SRIOCIrq != 0
		c.sr = SRHalted
		if hadIrq && irq != nil {
			irq(false)
		}
		return
	}
	c.cr = v &^ CRReset
	if c.running() {
		c.sr &^= SRHalted
		if !c.busy {
			c.sr |= SRIdle
		}
	} else {
		c.sr |= SRHalted
	}
}

func (d *DMA) writeSR(c *channel, v uint32, irq func(bool)) {
	// Write-1-to-clear interrupt and error bits.
	if v&SRIOCIrq != 0 && c.sr&SRIOCIrq != 0 {
		c.sr &^= SRIOCIrq
		if irq != nil {
			irq(false)
		}
	}
	if v&SRDMAIntErr != 0 {
		c.sr &^= SRDMAIntErr
	}
}

func (d *DMA) complete(c *channel, irq func(bool)) {
	c.busy = false
	c.sr |= SRIdle
	c.sr |= SRIOCIrq
	if c.cr&CRIOCIrqEn != 0 && irq != nil {
		irq(true)
	}
}

// asyncMem returns the master port's continuation interface. The DMA
// engines are continuation state machines (a whole burst traverses
// memory, stream fabric and consumers as scheduled continuations), so
// the port must support async transactions; every fabric model does.
func (d *DMA) asyncMem() axi.AsyncSlave {
	mem, ok := d.Mem.(axi.AsyncSlave)
	if !ok {
		panic(fmt.Sprintf("dma: %s: master port %T does not implement axi.AsyncSlave", d.name, d.Mem))
	}
	return mem
}

// mm2sXfer is one read-channel transfer running as a continuation state
// machine: DDR burst read → beat packing → stream burst push, repeated
// until the payload is out, with every pause point a scheduled event at
// the same cycle the process implementation yielded on. The callbacks
// are bound once per transfer so the steady-state burst loop allocates
// nothing.
type mm2sXfer struct {
	d         *DMA
	c         *channel
	mem       axi.AsyncSlave
	addr      uint64
	remaining int
	n         int // bytes in the burst currently in flight
	stall     sim.Time
	fail      bool
	buf       []byte
	beats     []axi.Beat
	start     func()
	runFn     func()
	readBurst func()
	afterRead func(error)
	afterPush func()
}

// bind allocates the transfer's buffers and continuation closures once;
// every subsequent transfer on the channel reuses them.
func (m *mm2sXfer) bind() {
	m.buf = make([]byte, m.d.BurstBeats*8)
	m.beats = make([]axi.Beat, 0, m.d.BurstBeats)
	m.runFn = m.run
	m.start = func() {
		// An injected arbitration stall defers the first burst.
		if m.stall > 0 {
			m.d.k.Schedule(m.stall, m.runFn)
			return
		}
		m.run()
	}
	m.readBurst = func() {
		m.n = m.d.BurstBeats * 8
		if m.n > m.remaining {
			m.n = m.remaining
		}
		m.mem.ReadAsync(m.addr, m.buf[:m.n], m.afterRead)
	}
	m.afterRead = func(err error) {
		if err != nil {
			panic(fmt.Sprintf("dma: %s read %#x: %v", m.c.name, m.addr, err))
		}
		n := m.n
		m.beats = m.beats[:0]
		last := m.remaining == n
		off := 0
		// Full 8-byte beats take the word-at-a-time fast path.
		for ; off+8 <= n; off += 8 {
			m.beats = append(m.beats, axi.Beat{
				Data: binary.LittleEndian.Uint64(m.buf[off:]),
				Keep: axi.FullKeep,
				Last: last && off+8 == n,
			})
		}
		if off < n {
			var beat axi.Beat
			for i := 0; off+i < n; i++ {
				beat.Data |= uint64(m.buf[off+i]) << (8 * i)
				beat.Keep |= 1 << i
			}
			beat.Last = last
			m.beats = append(m.beats, beat)
		}
		// One scheduled continuation per AXI burst, matching how the
		// bus actually moves the data.
		m.d.MM2SOut.PushBurstAsync(m.beats, m.afterPush)
	}
	m.afterPush = func() {
		m.addr += uint64(m.n)
		m.remaining -= m.n
		m.c.bytes += uint64(m.n)
		if m.remaining > 0 {
			m.readBurst()
			return
		}
		if m.fail {
			m.c.sr |= SRDMAIntErr
		}
		m.d.complete(m.c, m.d.OnMM2SIrq)
	}
}

func (m *mm2sXfer) run() { m.readBurst() }

// startMM2S launches the read channel: fetch length bytes from DDR in
// bursts and push them as 64-bit beats into MM2SOut. Writing LENGTH
// while halted or mid-transfer is ignored, as on the real IP.
func (d *DMA) startMM2S(length uint32) {
	c := &d.mm2s
	if !c.running() || c.busy || length == 0 {
		return
	}
	c.length = length
	c.busy = true
	c.sr &^= SRIdle
	c.started++
	var fault Fault
	if d.Inject != nil {
		fault = d.Inject(c.started - 1)
	}
	remaining := int(length)
	if fault.Fail {
		// The transfer dies mid-stream: move a beat-aligned half of
		// the payload, then report the error.
		if remaining = int(length) / 2 &^ 7; remaining == 0 {
			remaining = 8
		}
	}
	m := d.mm2sX
	if m == nil {
		m = &mm2sXfer{d: d, c: c}
		m.bind()
		d.mm2sX = m
	}
	m.mem = d.asyncMem()
	m.addr = c.addr
	m.remaining = remaining
	m.n = 0
	m.stall = fault.Stall
	m.fail = fault.Fail
	// The engine starts later this cycle, as the process version did.
	d.k.Schedule(0, m.start)
}

// s2mmXfer is one write-channel transfer as a continuation state
// machine: stream burst pop → byte unpacking → buffered DDR burst
// writes, mirroring the process implementation's pause points (a flush
// suspends beat processing exactly where the blocking Write did).
type s2mmXfer struct {
	d           *DMA
	c           *channel
	mem         axi.AsyncSlave
	addr        uint64
	length      int
	total       int
	done        bool
	markDone    bool // current beat carried TLAST; set done after its flush
	buf         []byte
	beats       []axi.Beat
	pending     []axi.Beat // beats popped but not yet unpacked
	runFn       func()
	step        func()
	afterPop    func(int)
	afterFlush  func(error)
	finishFlush func(error)
}

// bind allocates the transfer's buffers and continuation closures once;
// every subsequent transfer on the channel reuses them.
func (m *s2mmXfer) bind() {
	m.buf = make([]byte, 0, m.d.BurstBeats*8)
	m.beats = make([]axi.Beat, m.d.BurstBeats)
	m.runFn = m.run
	burstBytes := m.d.BurstBeats * 8
	m.step = func() {
		for {
			if len(m.pending) == 0 {
				if m.done || m.total >= m.length {
					m.finish()
					return
				}
				// Cap the pop at the beats the remaining byte count can
				// need, so beats past the programmed length stay in the
				// stream for the next consumer — as with per-beat pops.
				maxBeats := (m.length - m.total + 7) / 8
				if maxBeats > len(m.beats) {
					maxBeats = len(m.beats)
				}
				m.d.S2MMIn.PopBurstAsync(m.beats[:maxBeats], m.afterPop)
				return
			}
			beat := m.pending[0]
			m.pending = m.pending[1:]
			if beat.Keep == axi.FullKeep && m.length-m.total >= 8 {
				// Full beats inside LENGTH take the word-at-a-time fast
				// path; it appends the same eight bytes the loop below
				// would, so flush points are unchanged.
				m.buf = binary.LittleEndian.AppendUint64(m.buf, beat.Data)
				m.total += 8
			} else {
				for i := 0; i < 8 && m.total < m.length; i++ {
					if beat.Keep&(1<<i) == 0 {
						continue
					}
					m.buf = append(m.buf, byte(beat.Data>>(8*i)))
					m.total++
				}
			}
			if beat.Last {
				m.markDone = true
				m.pending = nil
			}
			if len(m.buf) >= burstBytes {
				m.mem.WriteAsync(m.addr, m.buf, m.afterFlush)
				return
			}
			if m.markDone {
				m.done = true
				m.markDone = false
			}
		}
	}
	m.afterPop = func(got int) {
		m.pending = m.beats[:got]
		m.step()
	}
	m.afterFlush = func(err error) {
		if err != nil {
			panic(fmt.Sprintf("dma: %s write %#x: %v", m.c.name, m.addr, err))
		}
		m.addr += uint64(len(m.buf))
		m.c.bytes += uint64(len(m.buf))
		m.buf = m.buf[:0]
		if m.markDone {
			m.done = true
			m.markDone = false
		}
		m.step()
	}
	m.finishFlush = func(err error) {
		if err != nil {
			panic(fmt.Sprintf("dma: %s write %#x: %v", m.c.name, m.addr, err))
		}
		m.addr += uint64(len(m.buf))
		m.c.bytes += uint64(len(m.buf))
		m.buf = m.buf[:0]
		m.finish()
	}
}

func (m *s2mmXfer) run() { m.step() }

func (m *s2mmXfer) finish() {
	if len(m.buf) > 0 {
		m.mem.WriteAsync(m.addr, m.buf, m.finishFlush)
		return
	}
	m.c.length = uint32(m.total)
	m.d.complete(m.c, m.d.OnS2MMIrq)
}

// startS2MM launches the write channel: absorb beats from S2MMIn until
// length bytes or TLAST, writing bursts to DDR. The LENGTH register is
// updated with the actual byte count on completion, as on the real IP.
func (d *DMA) startS2MM(length uint32) {
	c := &d.s2mm
	if !c.running() || c.busy || length == 0 {
		return
	}
	c.length = length
	c.busy = true
	c.sr &^= SRIdle
	c.started++
	m := d.s2mmX
	if m == nil {
		m = &s2mmXfer{d: d, c: c}
		m.bind()
		d.s2mmX = m
	}
	m.mem = d.asyncMem()
	m.addr = c.addr
	m.length = int(length)
	m.total = 0
	m.done = false
	m.markDone = false
	m.buf = m.buf[:0]
	m.pending = nil
	// The engine starts later this cycle, as the process version did.
	d.k.Schedule(0, m.runFn)
}

// MM2SBusy reports whether the read channel has a transfer in flight.
func (d *DMA) MM2SBusy() bool { return d.mm2s.busy }

// S2MMBusy reports whether the write channel has a transfer in flight.
func (d *DMA) S2MMBusy() bool { return d.s2mm.busy }

// MM2SBytes returns the total bytes the read channel has moved.
func (d *DMA) MM2SBytes() uint64 { return d.mm2s.bytes }

// S2MMBytes returns the total bytes the write channel has moved.
func (d *DMA) S2MMBytes() uint64 { return d.s2mm.bytes }

// Transfers returns how many transfers each channel has started.
func (d *DMA) Transfers() (mm2s, s2mm uint64) { return d.mm2s.started, d.s2mm.started }
