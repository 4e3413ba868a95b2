package fpga

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// 7-series configuration packet constants (UG470 ch. 5). The bitstream
// writer in internal/bitstream uses the same constants, so the two sides
// stay consistent by construction.
const (
	SyncWord     uint32 = 0xAA995566
	DummyWord    uint32 = 0xFFFFFFFF
	BusWidthSync uint32 = 0x000000BB
	BusWidthWord uint32 = 0x11220044
	NoopWord     uint32 = 0x20000000 // type-1 NOP packet
)

// Configuration register addresses.
const (
	RegCRC    = 0x00
	RegFAR    = 0x01
	RegFDRI   = 0x02
	RegFDRO   = 0x03
	RegCMD    = 0x04
	RegCTL0   = 0x05
	RegMASK   = 0x06
	RegSTAT   = 0x07
	RegLOUT   = 0x08
	RegCOR0   = 0x09
	RegMFWR   = 0x0A
	RegCBC    = 0x0B
	RegIDCODE = 0x0C
	RegAXSS   = 0x0D
)

// CMD register command codes.
const (
	CmdNull   = 0x0
	CmdWCFG   = 0x1
	CmdMFW    = 0x2
	CmdLFRM   = 0x3 // DGHIGH/LFRM: last frame
	CmdRCFG   = 0x4
	CmdStart  = 0x5
	CmdRCAP   = 0x6
	CmdRCRC   = 0x7
	CmdAGHigh = 0x8
	CmdDesync = 0xD
)

// Type1Write builds a type-1 write packet header for count words to reg.
func Type1Write(reg uint32, count int) uint32 {
	return 1<<29 | 2<<27 | (reg&0x3FFF)<<13 | uint32(count)&0x7FF
}

// Type1Read builds a type-1 read packet header.
func Type1Read(reg uint32, count int) uint32 {
	return 1<<29 | 1<<27 | (reg&0x3FFF)<<13 | uint32(count)&0x7FF
}

// Type2Write builds a type-2 write packet header (big payload for the
// register selected by the preceding type-1 packet).
func Type2Write(count int) uint32 {
	return 2<<29 | 2<<27 | uint32(count)&0x7FFFFFF
}

// Type2Read builds a type-2 read packet header (big readback request
// for the register selected by the preceding type-1 packet).
func Type2Read(count int) uint32 {
	return 2<<29 | 1<<27 | uint32(count)&0x7FFFFFF
}

// Configuration engine errors, latched until ClearError.
var (
	ErrCRC      = errors.New("fpga: configuration CRC mismatch")
	ErrIDCode   = errors.New("fpga: IDCODE mismatch")
	ErrBadFrame = errors.New("fpga: frame address outside device")
	ErrNotWCFG  = errors.New("fpga: FDRI write without WCFG command")
)

// ICAP is the internal configuration access port: a 32-bit write port
// into the device's configuration engine. WriteWord and its burst form
// WriteWords are purely functional — callers (the AXIS2ICAP converter,
// the HWICAP IP, baseline controllers) pace them at the physical rate of
// one word per 100 MHz cycle, which is exactly the paper's 400 MB/s
// theoretical ceiling.
type ICAP struct {
	fab *Fabric

	// StuckFault, when set, is consulted at every DESYNC command with
	// the engine-lifetime desync attempt number (completed desyncs plus
	// swallowed ones, so retries see fresh decisions). Returning true
	// swallows the DESYNC: the engine stays synced and the fabric never
	// sees end-of-sequence — the stuck-ICAP failure mode that only an
	// abort clears.
	StuckFault func(n uint64) bool

	synced  bool
	abort   bool
	regs    [16]uint32
	cmd     uint32
	wcfg    bool
	farIdx  int  // linear frame index for the next committed frame
	farOK   bool // farIdx valid
	crc     uint32
	crcPend []byte // serialised (reg,word) bytes awaiting a batched CRC fold
	lastReg uint32
	lastOp  uint32

	// FDRI pipeline: cur collects the incoming frame; pend holds the
	// previous complete frame, which commits when the next one finishes
	// (the 7-series frame buffer: writing N frames takes N+1 frames of
	// data, the last being a pad frame that is never committed).
	payload int // words still expected for the current packet
	preg    uint32
	cur     []uint32
	pend    []uint32
	spare   []uint32 // recycled frame buffer (pend dropped by a FAR write)

	// Readback: a type-1 read of FDRO (after CMD=RCFG and a FAR write)
	// queues frame words here; ReadWord drains them.
	readQ []uint32

	words     uint64
	frames    uint64
	err       error
	desyncs   uint64
	stuck     uint64
	staticWr  uint64
	partWrite map[*Partition]uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// NewICAP returns the configuration port of fab.
func NewICAP(fab *Fabric) *ICAP {
	return &ICAP{fab: fab, partWrite: make(map[*Partition]uint64)}
}

// Abort performs the ICAP abort sequence (what the HWICAP's abort bit
// triggers): the packet engine desynchronises and drops any partial
// packet, pipeline frame and readback state. Configuration memory is
// untouched — recovery from an interrupted transfer is abort + full
// reload.
func (ic *ICAP) Abort() {
	ic.synced = false
	ic.payload = 0
	ic.wcfg = false
	ic.abort = false
	ic.err = nil
	ic.resetCRC()
	ic.readQ = nil
	ic.dropPipeline()
}

// Err returns the latched configuration error, if any.
func (ic *ICAP) Err() error { return ic.err }

// ClearError clears the latched error state.
func (ic *ICAP) ClearError() { ic.err = nil; ic.abort = false }

// Words returns the number of 32-bit words consumed since creation.
func (ic *ICAP) Words() uint64 { return ic.words }

// FramesWritten returns the number of frames committed to configuration
// memory.
func (ic *ICAP) FramesWritten() uint64 { return ic.frames }

// Desyncs returns how many complete configuration sequences (DESYNC
// commands) the engine has seen.
func (ic *ICAP) Desyncs() uint64 { return ic.desyncs }

// StuckFaults returns how many DESYNCs were swallowed by StuckFault.
func (ic *ICAP) StuckFaults() uint64 { return ic.stuck }

// Synced reports whether the engine has seen the sync word and is
// processing packets.
func (ic *ICAP) Synced() bool { return ic.synced }

func (ic *ICAP) fail(err error) {
	if ic.err == nil {
		ic.err = err
	}
	ic.abort = true
}

// UpdateCRC folds a (register, word) pair into a running configuration
// CRC. The real device CRC is a 32-bit CRC over {address, data} pairs;
// the model uses CRC-32C over the same pairs, which preserves the
// property that matters: any corruption of the loaded stream is caught
// at the CRC check. The bitstream writer uses the same function, so
// generated streams always carry the value the engine will compute.
func UpdateCRC(crc uint32, reg, w uint32) uint32 {
	// crc32.Update over the 5 bytes {reg, w LSB-first}: MakeTable
	// (Castagnoli) hands back the table the stdlib recognises, so this
	// dispatches to the hardware CRC32-C instruction where available.
	b := [5]byte{byte(reg), byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	return crc32.Update(crc, crcTable, b[:])
}

// UpdateCRCBytes folds an already-serialised run of (reg, word) bytes —
// produced in UpdateCRC's order, 5 bytes per word — into the running
// CRC. Batching whole frames through one call lets the stdlib use its
// wide hardware CRC path instead of word-at-a-time updates.
func UpdateCRCBytes(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crcTable, p)
}

// crcFlushLen bounds the lazily-buffered CRC byte run (about one frame).
const crcFlushLen = 505

func (ic *ICAP) crcUpdate(reg uint32, w uint32) {
	// The running CRC is folded lazily: bytes accumulate here and are
	// batched through one hardware-CRC call per ~frame, or on demand
	// when the CRC register is checked. Observable values are identical
	// to per-word folding.
	ic.crcPend = append(ic.crcPend, byte(reg), byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	if len(ic.crcPend) >= crcFlushLen {
		ic.flushCRC()
	}
}

func (ic *ICAP) flushCRC() {
	if len(ic.crcPend) > 0 {
		ic.crc = crc32.Update(ic.crc, crcTable, ic.crcPend)
		ic.crcPend = ic.crcPend[:0]
	}
}

// resetCRC clears the running CRC, discarding any lazily-buffered run
// (the fold of those bytes is dead either way).
func (ic *ICAP) resetCRC() {
	ic.crc = 0
	ic.crcPend = ic.crcPend[:0]
}

// WriteWords feeds ws into the configuration engine in order; it is
// exactly equivalent to calling WriteWord on each word. FDRI payload
// words of a synced, WCFG-enabled, error-free engine are taken a run at
// a time — up to the end of the packet payload, of ws, or of the frame
// being collected — with the run's CRC bytes serialised in one loop and
// its words copied straight into the frame buffer. Every other word
// (headers, registers, commands, errors) takes the WriteWord path.
//
//lint:hot
func (ic *ICAP) WriteWords(ws []uint32) {
	for len(ws) > 0 {
		if ic.payload == 0 || !ic.synced || ic.preg != RegFDRI || !ic.wcfg || ic.abort {
			ic.WriteWord(ws[0])
			ws = ws[1:]
			continue
		}
		n := min(ic.payload, len(ws), FrameWords-len(ic.cur))
		run := ws[:n]
		ws = ws[n:]
		ic.words += uint64(n)
		ic.payload -= n
		off := len(ic.crcPend)
		ic.crcPend = slices.Grow(ic.crcPend, 5*n)[:off+5*n]
		b := ic.crcPend[off:]
		for i, w := range run {
			b[5*i] = RegFDRI
			binary.LittleEndian.PutUint32(b[5*i+1:], w)
		}
		if len(ic.crcPend) >= crcFlushLen {
			ic.flushCRC()
		}
		ic.cur = append(ic.cur, run...)
		if len(ic.cur) == FrameWords {
			ic.frameDone()
		}
	}
}

// WriteWord feeds one 32-bit word into the configuration engine.
func (ic *ICAP) WriteWord(w uint32) {
	ic.words++
	if !ic.synced {
		// Before sync, dummy/bus-width-detect words are ignored.
		if w == SyncWord {
			ic.synced = true
			ic.payload = 0
		}
		return
	}
	if ic.payload > 0 {
		ic.payload--
		ic.regWrite(ic.preg, w)
		return
	}
	ic.parseHeader(w)
}

func (ic *ICAP) parseHeader(w uint32) {
	typ := w >> 29
	op := w >> 27 & 0x3
	switch typ {
	case 1:
		reg := w >> 13 & 0x3FFF
		count := int(w & 0x7FF)
		ic.lastReg = reg
		ic.lastOp = op
		switch op {
		case 0: // NOP
		case 2: // write
			ic.preg = reg
			ic.payload = count
			if reg != RegFDRI {
				// Leaving an FDRI burst: the trailing pad frame in the
				// pipeline is discarded, not committed.
				ic.dropPipeline()
			}
		case 1: // read
			ic.startRead(reg, count)
		}
	case 2:
		count := int(w & 0x7FFFFFF)
		if ic.lastOp == 1 {
			ic.startRead(ic.lastReg, count)
			return
		}
		ic.preg = ic.lastReg
		ic.payload = count
	default:
		ic.fail(fmt.Errorf("fpga: bad packet header %#08x", w))
	}
}

// startRead services a read request. Readback of the frame data output
// register streams configuration memory starting at the current FAR
// (one simplification against real silicon: no leading pad frame in the
// readback stream). Ordinary registers read back their stored value.
func (ic *ICAP) startRead(reg uint32, count int) {
	switch reg {
	case RegFDRO:
		if ic.cmd != CmdRCFG {
			ic.fail(fmt.Errorf("fpga: FDRO read without RCFG command"))
			return
		}
		if !ic.farOK {
			ic.fail(fmt.Errorf("%w: FDRO read without valid FAR", ErrBadFrame))
			return
		}
		idx := ic.farIdx
		for len(ic.readQ) < count {
			frame, err := ic.fab.Mem.ReadFrame(idx)
			if err != nil {
				ic.fail(err)
				return
			}
			ic.readQ = append(ic.readQ, frame...)
			idx++
		}
		ic.readQ = ic.readQ[:count]
		ic.farIdx = idx
	default:
		// Ordinary registers hold a single word; a request for more than
		// the register file can meaningfully supply is a malformed
		// stream, not a reason to materialise gigabytes of readback.
		const maxRegRead = 4096
		if count > maxRegRead {
			ic.fail(fmt.Errorf("fpga: register %#x read of %d words", reg, count))
			return
		}
		for n := 0; n < count; n++ {
			var v uint32
			if reg < uint32(len(ic.regs)) {
				v = ic.regs[reg]
			}
			ic.readQ = append(ic.readQ, v)
		}
	}
}

// ReadWord pops one word from the readback stream; ok is false when the
// stream is empty.
func (ic *ICAP) ReadWord() (w uint32, ok bool) {
	if len(ic.readQ) == 0 {
		return 0, false
	}
	w = ic.readQ[0]
	ic.readQ = ic.readQ[1:]
	return w, true
}

// ReadPending returns the number of queued readback words.
func (ic *ICAP) ReadPending() int { return len(ic.readQ) }

func (ic *ICAP) dropPipeline() {
	ic.cur = ic.cur[:0]
	if ic.pend != nil {
		ic.spare = ic.pend[:0] // keep the storage for the next pipeline fill
		ic.pend = nil
	}
}

func (ic *ICAP) regWrite(reg uint32, w uint32) {
	if reg != RegCRC {
		ic.crcUpdate(reg, w)
	}
	switch reg {
	case RegFDRI:
		ic.fdriWord(w)
		return
	case RegCMD:
		ic.command(w)
	case RegFAR:
		idx, err := ic.fab.Dev.FARToIndex(w)
		if err != nil {
			ic.fail(fmt.Errorf("%w: FAR %#08x", ErrBadFrame, w))
			ic.farOK = false
		} else {
			ic.farIdx = idx
			ic.farOK = true
		}
		ic.dropPipeline()
	case RegIDCODE:
		if w != ic.fab.Dev.IDCode {
			ic.fail(fmt.Errorf("%w: stream %#08x, device %#08x", ErrIDCode, w, ic.fab.Dev.IDCode))
		}
	case RegCRC:
		ic.flushCRC()
		if w != ic.crc {
			ic.fail(fmt.Errorf("%w: stream %#08x, computed %#08x", ErrCRC, w, ic.crc))
		}
		ic.resetCRC()
	}
	if reg < uint32(len(ic.regs)) {
		ic.regs[reg] = w
	}
}

func (ic *ICAP) command(w uint32) {
	ic.cmd = w & 0x1F
	switch ic.cmd {
	case CmdRCRC:
		ic.resetCRC()
	case CmdWCFG:
		ic.wcfg = true
	case CmdNull, CmdLFRM, CmdStart, CmdAGHigh, CmdRCFG:
		ic.wcfg = false
	case CmdDesync:
		if ic.StuckFault != nil && ic.StuckFault(ic.desyncs+ic.stuck) {
			ic.stuck++
			return
		}
		ic.synced = false
		ic.wcfg = false
		ic.desyncs++
		ic.dropPipeline()
		ic.fab.endOfSequence()
	}
}

func (ic *ICAP) fdriWord(w uint32) {
	if ic.abort {
		return
	}
	if !ic.wcfg {
		ic.fail(ErrNotWCFG)
		return
	}
	ic.cur = append(ic.cur, w)
	if len(ic.cur) == FrameWords {
		ic.frameDone()
	}
}

// frameDone advances the FDRI pipeline once cur holds a complete frame:
// the previous frame (if any) commits and this one is held in the
// pipeline. The committed frame's storage is recycled as the next
// collection buffer (WriteFrame copies), so the steady-state frame flow
// ping-pongs two buffers instead of allocating one per frame.
//
//lint:hot
func (ic *ICAP) frameDone() {
	full := ic.cur
	switch {
	case ic.pend != nil:
		ic.commit(ic.pend)
		ic.cur = ic.pend[:0]
	case ic.spare != nil:
		ic.cur = ic.spare
		ic.spare = nil
	default:
		ic.cur = make([]uint32, 0, FrameWords)
	}
	ic.pend = full
}

func (ic *ICAP) commit(frame []uint32) {
	if !ic.farOK {
		ic.fail(fmt.Errorf("%w: FDRI without valid FAR", ErrBadFrame))
		return
	}
	if err := ic.fab.Mem.WriteFrame(ic.farIdx, frame); err != nil {
		ic.fail(err)
		return
	}
	if part := ic.fab.Owner(ic.farIdx); part != nil {
		ic.partWrite[part]++
	} else {
		ic.staticWr++
	}
	ic.frames++
	ic.farIdx++
}

// StaticFrameWrites returns the frames written outside any partition.
func (ic *ICAP) StaticFrameWrites() uint64 { return ic.staticWr }

// PartitionFrameWrites returns the frames written into p.
func (ic *ICAP) PartitionFrameWrites(p *Partition) uint64 { return ic.partWrite[p] }
