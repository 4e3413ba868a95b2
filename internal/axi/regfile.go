package axi

import (
	"fmt"

	"rvcap/internal/sim"
)

// RegFile is a bank of 32-bit memory-mapped registers, the building block
// for every IP's programming interface (DMA CR/SR/SA/LENGTH, HWICAP
// WF/SZ/CR/SR, the RV-CAP RP control interface...). Registers are
// word-addressed at 4-byte-aligned offsets; hooks observe or override
// accesses so device models react to programming.
//
// The bank's size is fixed at construction, so values and hooks live in
// slices indexed by off/4: a register access is an index, not a map
// lookup (and a keyhole store is not a map assignment).
type RegFile struct {
	name    string
	size    uint64
	regs    []uint32
	onRead  []func() uint32
	onWrite []func(uint32)
	// AccessCycles is the slave-side cost of one register access.
	AccessCycles sim.Time
}

// NewRegFile returns a register bank spanning [0, size).
func NewRegFile(name string, size uint64) *RegFile {
	n := (size + 3) / 4
	return &RegFile{
		name:         name,
		size:         size,
		regs:         make([]uint32, n),
		onRead:       make([]func() uint32, n),
		onWrite:      make([]func(uint32), n),
		AccessCycles: 1,
	}
}

// OnRead installs fn as the value source for the register at off.
func (r *RegFile) OnRead(off uint64, fn func() uint32) { r.onRead[r.check(off)] = fn }

// OnWrite installs fn as the observer/absorber for writes to off. The
// written value is still stored (readable via Peek) unless an OnRead hook
// shadows it.
func (r *RegFile) OnWrite(off uint64, fn func(uint32)) { r.onWrite[r.check(off)] = fn }

// check validates off and returns its register index.
func (r *RegFile) check(off uint64) uint64 {
	if off%4 != 0 || off >= r.size {
		panic(fmt.Sprintf("axi: %s: bad register offset %#x", r.name, off))
	}
	return off / 4
}

// Peek returns the stored value without simulation side effects.
func (r *RegFile) Peek(off uint64) uint32 { return r.regs[r.check(off)] }

// Poke stores a value without simulation side effects or hooks.
func (r *RegFile) Poke(off uint64, v uint32) { r.regs[r.check(off)] = v }

func (r *RegFile) access(addr uint64, n int) error {
	if addr%4 != 0 || n != 4 {
		return &AccessError{Op: "access", Addr: addr,
			Err: fmt.Errorf("%w: %s requires aligned 32-bit accesses (got %d bytes at %#x)", ErrSlave, r.name, n, addr)}
	}
	if addr+uint64(n) > r.size {
		return &AccessError{Op: "access", Addr: addr, Err: ErrDecode}
	}
	return nil
}

func (r *RegFile) Read(p *sim.Proc, addr uint64, buf []byte) error {
	if err := r.access(addr, len(buf)); err != nil {
		return err
	}
	p.Sleep(r.AccessCycles)
	v := r.regs[addr/4]
	if fn := r.onRead[addr/4]; fn != nil {
		v = fn()
	}
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	return nil
}

func (r *RegFile) Write(p *sim.Proc, addr uint64, data []byte) error {
	if err := r.access(addr, len(data)); err != nil {
		return err
	}
	p.Sleep(r.AccessCycles)
	v := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
	r.regs[addr/4] = v
	if fn := r.onWrite[addr/4]; fn != nil {
		fn(v)
	}
	return nil
}

var _ Slave = (*RegFile)(nil)
