package fpga

import (
	"fmt"
)

// ConfigMemory is the device's configuration memory: one 101-word frame
// per linear frame index. Frames are what the ICAP engine reads and
// writes; their contents define the logic realised in the fabric.
type ConfigMemory struct {
	dev    *Device
	frames [][]uint32 // lazily allocated; nil = never configured
	// fhash holds FrameHash of every frame's current contents, paid once
	// per WriteFrame, so a partition signature chains stored hashes
	// instead of re-reading its frames. Never-written frames hold the
	// hash of an all-zero frame, which is what they read back as.
	fhash []uint64
	// Dirty tracking as a mark array plus an index list: a frame write
	// is a bool test and at most one append, and TakeDirty hands back
	// the list without building a map — a reconfiguration-rate hot path
	// that must not allocate per frame.
	dirtyMark  []bool
	dirtyList  []int
	spareDirty []int // previous list, recycled on the next TakeDirty
	writes     uint64
}

// NewConfigMemory returns an all-unconfigured configuration memory.
func NewConfigMemory(dev *Device) *ConfigMemory {
	m := &ConfigMemory{
		dev:       dev,
		frames:    make([][]uint32, dev.TotalFrames()),
		fhash:     make([]uint64, dev.TotalFrames()),
		dirtyMark: make([]bool, dev.TotalFrames()),
	}
	for i := range m.fhash {
		m.fhash[i] = zeroFrameHash
	}
	return m
}

// WriteFrame stores one frame at the linear index.
func (m *ConfigMemory) WriteFrame(idx int, words []uint32) error {
	if idx < 0 || idx >= len(m.frames) {
		return fmt.Errorf("fpga: frame write outside device: index %d of %d", idx, len(m.frames))
	}
	if len(words) != FrameWords {
		return fmt.Errorf("fpga: frame write of %d words, want %d", len(words), FrameWords)
	}
	if m.frames[idx] == nil {
		m.frames[idx] = make([]uint32, FrameWords)
	}
	copy(m.frames[idx], words)
	m.fhash[idx] = FrameHash(words)
	if !m.dirtyMark[idx] {
		m.dirtyMark[idx] = true
		m.dirtyList = append(m.dirtyList, idx)
	}
	m.writes++
	return nil
}

// ReadFrame returns a copy of the frame at idx; unconfigured frames read
// as zeros, mirroring a cleared device.
func (m *ConfigMemory) ReadFrame(idx int) ([]uint32, error) {
	if idx < 0 || idx >= len(m.frames) {
		return nil, fmt.Errorf("fpga: frame read outside device: index %d of %d", idx, len(m.frames))
	}
	out := make([]uint32, FrameWords)
	copy(out, m.frames[idx])
	return out, nil
}

// Configured reports whether the frame at idx was ever written.
func (m *ConfigMemory) Configured(idx int) bool {
	return idx >= 0 && idx < len(m.frames) && m.frames[idx] != nil
}

// FrameWrites returns the total number of frame writes performed.
func (m *ConfigMemory) FrameWrites() uint64 { return m.writes }

// TakeDirty returns the frames written since the last call, in first-
// write order, and resets the tracking. The fabric uses it to
// re-evaluate partitions at the end of a configuration sequence. The
// returned slice is valid until the call after next: the two index
// lists alternate so the steady state allocates nothing.
func (m *ConfigMemory) TakeDirty() []int {
	d := m.dirtyList
	for _, idx := range d {
		m.dirtyMark[idx] = false
	}
	m.dirtyList = m.spareDirty[:0]
	m.spareDirty = d
	return d
}

// HashFrames is the model's stand-in for "what logic do these frames
// realise": it chains FrameHash of the contents fetched through get over
// the given linear indices, in order (nil frames hash as zeros). A
// bit-exact load of a module's frames produces the module's registered
// signature, anything else does not; a change confined to one frame
// always changes it. The chain sees contents in load order, never frame
// addresses, so a relocated image keeps its prototype's signature. The
// bitstream builder, the readback verifier and the fabric (through the
// per-frame hashes WriteFrame stores) all compute this same value.
func HashFrames(get func(idx int) []uint32, frames []int) uint64 {
	h := uint64(chainSeed)
	for _, idx := range frames {
		h = chainStep(h, FrameHash(get(idx)))
	}
	return h
}

// Frame hash constants: an odd multiplier (so every multiply is a
// bijection on uint64) and distinct per-lane seeds.
const (
	hashMul   = 0x9E3779B97F4A7C15
	laneSeed0 = 0x243F6A8885A308D3
	laneSeed1 = 0x13198A2E03707344
	laneSeed2 = 0xA4093822299F31D0
	laneSeed3 = 0x082EFA98EC4E6C89
	chainSeed = 0x452821E638D01377
)

var (
	zeroFrame [FrameWords]uint32
	// zeroFrameHash is FrameHash of an all-zero (or never-written) frame.
	zeroFrameHash = FrameHash(nil)
)

// FrameHash hashes one frame's contents; a nil frame hashes as zeros.
// Four independent multiply-xor lanes each absorb every fourth 64-bit
// word pair, then combine. Every step — (lane ^ x) * odd, each combine
// and the final shift-xor — is a bijection in the value it absorbs and
// in the running state, so changing any single word pair (in particular
// any single bit) of a frame always changes its hash.
func FrameHash(f []uint32) uint64 {
	if f == nil {
		f = zeroFrame[:]
	}
	f = f[:FrameWords]
	l0, l1, l2, l3 := uint64(laneSeed0), uint64(laneSeed1), uint64(laneSeed2), uint64(laneSeed3)
	i := 0
	for ; i+8 <= FrameWords; i += 8 {
		l0 = (l0 ^ (uint64(f[i]) | uint64(f[i+1])<<32)) * hashMul
		l1 = (l1 ^ (uint64(f[i+2]) | uint64(f[i+3])<<32)) * hashMul
		l2 = (l2 ^ (uint64(f[i+4]) | uint64(f[i+5])<<32)) * hashMul
		l3 = (l3 ^ (uint64(f[i+6]) | uint64(f[i+7])<<32)) * hashMul
	}
	// FrameWords = 12*8 + 5: two trailing pairs and one odd word.
	l0 = (l0 ^ (uint64(f[i]) | uint64(f[i+1])<<32)) * hashMul
	l1 = (l1 ^ (uint64(f[i+2]) | uint64(f[i+3])<<32)) * hashMul
	h := (l0 ^ uint64(f[i+4])) * hashMul
	h = (h ^ l1) * hashMul
	h = (h ^ l2) * hashMul
	h = (h ^ l3) * hashMul
	return h ^ h>>31
}

// chainStep folds one frame hash into a partition signature: a bijection
// in both the running signature and the frame hash.
func chainStep(h, fh uint64) uint64 { return (h ^ fh) * hashMul }

// signature chains the stored per-frame hashes of the given frames — the
// value HashFrames computes from their contents, in O(frames).
func (m *ConfigMemory) signature(frames []int) uint64 {
	h := uint64(chainSeed)
	for _, idx := range frames {
		h = chainStep(h, m.fhash[idx])
	}
	return h
}
