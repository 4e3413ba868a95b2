// Package core implements the RV-CAP controller, the paper's
// contribution (§III-B, Fig. 2): a DPR controller for FPGA-based RISC-V
// SoCs built from ① a Xilinx AXI DMA fetching from DDR through an
// additional crossbar, ② AXI width/protocol converters (wired in
// internal/soc), ③ an RP control interface providing decoupling and R/W
// control signals to the reconfigurable modules, ④ an AXI-Stream switch
// selecting between reconfiguration mode (stream → ICAP) and
// acceleration mode (stream → RM), and ⑤ an AXIS2ICAP converter that
// splits each 64-bit DDR beat into two 32-bit words for the ICAP data
// port.
//
// The controller runs fully synchronous at the single 100 MHz clock; its
// peak reconfiguration rate is therefore the ICAP's physical ceiling of
// 4 bytes/cycle = 400 MB/s, and the measured 398.1 MB/s of the paper is
// this ceiling minus the fixed software/DMA start-up and completion
// overheads.
package core

import (
	"math/bits"

	"rvcap/internal/axi"
	"rvcap/internal/dma"
	"rvcap/internal/fpga"
	"rvcap/internal/sim"
)

// RP control interface register offsets (the controller's own register
// block, distinct from the DMA's).
const (
	RegControl   = 0x00 // bit n: decouple RP n
	RegStreamSel = 0x04 // bit 0: 1 = reconfiguration mode (ICAP), 0 = acceleration mode (RM)
	RegStatus    = 0x08 // see Status* bits
	RegRMCtrl    = 0x0C // R/W control word forwarded to the active RM
	RegRMStatus  = 0x10 // status word sourced from the active RM
	RegFileSize  = 0x20
)

// RegStatus bits.
const (
	StatusICAPError = 1 << 0 // configuration engine latched an error
	StatusConvBusy  = 1 << 1 // AXIS2ICAP has beats in flight
	StatusMM2SBusy  = 1 << 2 // DMA read channel busy
	StatusS2MMBusy  = 1 << 3 // DMA write channel busy
)

// SelectICAPBit is the RegStreamSel bit enabling reconfiguration mode.
const SelectICAPBit = 1 << 0

// icapStreamDepth is the AXIS2ICAP input FIFO in beats (a small skid
// buffer; the data path is rate-matched, not buffered).
const icapStreamDepth = 32

// Controller is the RV-CAP DPR controller.
type Controller struct {
	k    *sim.Kernel
	icap *fpga.ICAP

	// DMA is the embedded Xilinx AXI DMA (component ① of Fig. 2). Its
	// Mem master port is wired by the SoC to the DDR crossbar.
	DMA *dma.DMA
	// Regs is the RP control interface (component ③).
	Regs *axi.RegFile
	// Switch is the AXI-Stream switch (component ④).
	Switch *axi.StreamSwitch
	// AccelOut is the acceleration-mode stream toward the RM, behind the
	// PR decoupler. The SoC connects the active RM's input here.
	AccelOut *axi.StreamIsolator

	// OnDecouple hooks observe decouple-bit changes (the SoC uses them
	// to drive the memory-mapped isolators of each RP).
	OnDecouple []func(rp int, decoupled bool)

	// RMControl is invoked when software writes RegRMCtrl (R/W control
	// signals into the RP); RMStatus sources RegRMStatus reads.
	RMControl func(v uint32)
	RMStatus  func() uint32

	icapIn   *axi.Stream
	control  uint32
	sel      uint32
	icapDone *sim.Signal
}

// New builds the controller around an ICAP engine. The caller wires
// DMA.Mem, AccelOut.Next and the S2MM stream before use.
func New(k *sim.Kernel, icap *fpga.ICAP) *Controller {
	c := &Controller{
		k:    k,
		icap: icap,
		DMA:  dma.New(k, "rvcap.dma"),
	}
	c.icapIn = axi.NewStream(k, "rvcap.axis2icap", icapStreamDepth)
	c.AccelOut = axi.NewStreamIsolator(nil) // Next wired by the SoC
	c.Switch = axi.NewStreamSwitch("rvcap.switch", c.icapIn, c.AccelOut)
	c.DMA.MM2SOut = c.Switch
	c.Regs = axi.NewRegFile("rvcap.regs", RegFileSize)
	c.icapDone = sim.NewSignal(k, "rvcap.icapDone")
	c.wireRegs()
	c.startConverter()
	return c
}

func (c *Controller) wireRegs() {
	r := c.Regs
	r.OnWrite(RegControl, func(v uint32) {
		old := c.control
		c.control = v
		c.applyDecouple(old, v)
	})
	r.OnRead(RegControl, func() uint32 { return c.control })
	r.OnWrite(RegStreamSel, func(v uint32) {
		c.sel = v
		if v&SelectICAPBit != 0 {
			c.Switch.Select(axi.PortICAP)
		} else {
			c.Switch.Select(axi.PortRM)
		}
	})
	r.OnRead(RegStreamSel, func() uint32 { return c.sel })
	r.OnRead(RegStatus, func() uint32 { return c.status() })
	r.OnWrite(RegRMCtrl, func(v uint32) {
		if c.RMControl != nil {
			c.RMControl(v)
		}
	})
	r.OnRead(RegRMStatus, func() uint32 {
		if c.RMStatus != nil {
			return c.RMStatus()
		}
		return 0
	})
}

func (c *Controller) applyDecouple(old, now uint32) {
	if old == now {
		return
	}
	// RP0's stream decoupler is built in; further RPs hook OnDecouple.
	c.AccelOut.SetDecoupled(now&1 != 0)
	for rp := 0; rp < 32; rp++ {
		bit := uint32(1) << rp
		if old&bit != now&bit {
			for _, fn := range c.OnDecouple {
				fn(rp, now&bit != 0)
			}
		}
	}
}

func (c *Controller) status() uint32 {
	var v uint32
	if c.icap.Err() != nil {
		v |= StatusICAPError
	}
	if c.icapIn.Len() > 0 {
		v |= StatusConvBusy
	}
	if c.DMA.MM2SBusy() {
		v |= StatusMM2SBusy
	}
	if c.DMA.S2MMBusy() {
		v |= StatusS2MMBusy
	}
	return v
}

// startConverter launches the AXIS2ICAP engine (component ⑤): each
// 64-bit beat fetched from DDR is split into two 32-bit words written to
// the ICAP data port in order, one word per cycle. Configuration words
// are big-endian on the wire, so the first word of a beat comes from its
// low-address bytes interpreted most-significant-byte first.
func (c *Controller) startConverter() {
	cv := &converter{
		c:     c,
		burst: make([]axi.Beat, dma.DefaultBurstBeats),
		words: make([]uint32, 0, 2*dma.DefaultBurstBeats),
	}
	cv.step = func() { c.icapIn.PopBurstAsync(cv.burst, cv.afterPop) }
	cv.fireStep = func() {
		//lint:ignore wait-graph icapDone is the public completion pulse exposed via ICAPDone(); its waiters live outside the non-test module surface (driver tests and API consumers)
		c.icapDone.Fire()
		cv.step()
	}
	cv.afterPop = cv.onBurst
	c.k.Schedule(0, cv.step)
}

// converter is the AXIS2ICAP continuation state machine replacing the
// converter process: each burst pop, word-pacing delay and TLAST pulse
// is one scheduled event at the cycle the process implementation woke
// on, so the datapath traverses the converter without coroutine
// switches. The continuations are bound once, at startConverter.
type converter struct {
	c        *Controller
	burst    []axi.Beat
	words    []uint32 // the popped burst unpacked into configuration words
	step     func()
	fireStep func()
	afterPop func(int)
}

// onBurst unpacks the popped burst into configuration words and hands
// them to the ICAP in one call.
//
//lint:hot
func (cv *converter) onBurst(got int) {
	cv.words = cv.words[:0]
	last := false
	for _, beat := range cv.burst[:got] {
		if beat.Keep == axi.FullKeep {
			// Both halves valid: big-endian word = byte-swapped
			// little-endian half.
			cv.words = append(cv.words,
				bits.ReverseBytes32(uint32(beat.Data)),
				bits.ReverseBytes32(uint32(beat.Data>>32)))
		} else {
			for half := 0; half < 2; half++ {
				var w uint32
				valid := false
				for i := 0; i < 4; i++ {
					lane := half*4 + i
					if beat.Keep&(1<<lane) != 0 {
						valid = true
					}
					w = w<<8 | uint32(byte(beat.Data>>(8*lane)))
				}
				if valid {
					cv.words = append(cv.words, w)
				}
			}
		}
		if beat.Last {
			last = true
		}
	}
	cv.c.icap.WriteWords(cv.words)
	// One cycle per 32-bit word, charged in a single delay; the TLAST
	// pulse lands on the same absolute cycle as with per-word pacing.
	switch n := len(cv.words); {
	case n > 0 && last:
		cv.c.k.Schedule(sim.Time(n), cv.fireStep)
	case n > 0:
		cv.c.k.Schedule(sim.Time(n), cv.step)
	case last:
		cv.fireStep()
	default:
		cv.step()
	}
}

// ICAPWordsDelivered returns the words the converter has written to the
// configuration engine.
func (c *Controller) ICAPWordsDelivered() uint64 { return c.icap.Words() }

// ICAPDone returns a pulse signal fired when the converter finishes the
// final beat of a stream (TLAST) — used by tests to align measurements.
func (c *Controller) ICAPDone() *sim.Signal { return c.icapDone }

// Decoupled reports whether RP rp is currently decoupled.
func (c *Controller) Decoupled(rp int) bool { return c.control&(1<<rp) != 0 }

// ReconfigMode reports whether the stream switch targets the ICAP.
func (c *Controller) ReconfigMode() bool { return c.sel&SelectICAPBit != 0 }
