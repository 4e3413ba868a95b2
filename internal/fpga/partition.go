package fpga

import (
	"fmt"
	"sort"
)

// Partition is a reconfigurable partition (RP): a reserved set of
// configuration frames whose contents can be swapped at runtime while
// the static region keeps running. Reserve is the advertised resource
// budget of the RP (what the paper's Table III percentages are computed
// against); Span is the fabric physically covered by its frames, which
// is never smaller than the reserve (pblocks include routing margin).
type Partition struct {
	Name    string
	Reserve Resources
	Span    Resources

	frames   []int
	frameSet map[int]struct{}
	active   string
	loads    uint64
	touched  bool // scratch for endOfSequence's dirty-frame sweep
}

// Frames returns the partition's sorted linear frame indices.
func (p *Partition) Frames() []int { return p.frames }

// NumFrames returns the partition's frame count.
func (p *Partition) NumFrames() int { return len(p.frames) }

// Contains reports whether frame idx belongs to the partition.
func (p *Partition) Contains(idx int) bool {
	_, ok := p.frameSet[idx]
	return ok
}

// Active returns the name of the currently realised module, or "" when
// the partition holds no (or corrupted/unknown) configuration.
func (p *Partition) Active() string { return p.active }

// Loads returns how many successful module activations the partition has
// seen.
func (p *Partition) Loads() uint64 { return p.loads }

// Runs returns the partition's frames grouped into maximal runs of
// consecutive linear indices — the FDRI bursts a partial bitstream for
// this partition consists of.
func (p *Partition) Runs() [][2]int {
	var runs [][2]int
	for i := 0; i < len(p.frames); {
		j := i
		for j+1 < len(p.frames) && p.frames[j+1] == p.frames[j]+1 {
			j++
		}
		runs = append(runs, [2]int{p.frames[i], p.frames[j]})
		i = j + 1
	}
	return runs
}

// Fabric ties the device geometry, the configuration memory, the ICAP
// engine's view of partitions, and the module-signature registry
// together. When a configuration sequence completes (DESYNC), every
// partition whose frames were touched is re-evaluated: a bit-exact load
// of a registered module's frames activates that module; anything else
// (partial load, corruption) leaves the partition inactive.
type Fabric struct {
	Dev *Device
	Mem *ConfigMemory

	parts  []*Partition
	owner  []*Partition // by linear frame index; nil = static
	sigs   map[uint64]string
	onLoad []func(p *Partition, module string)
}

// NewFabric returns a fabric for dev with empty configuration memory.
func NewFabric(dev *Device) *Fabric {
	return &Fabric{
		Dev:   dev,
		Mem:   NewConfigMemory(dev),
		owner: make([]*Partition, dev.TotalFrames()),
		sigs:  make(map[uint64]string),
	}
}

// AddPartition reserves the given frames as a reconfigurable partition.
// Frames must be inside the device and not belong to another partition,
// and the name must not collide with a live partition — partitions are
// created and destroyed at runtime by the placement layer, so both
// invariants are enforced here, at the fabric level, rather than in any
// one caller.
func (f *Fabric) AddPartition(name string, frames []int, reserve, span Resources) (*Partition, error) {
	if f.Partition(name) != nil {
		return nil, fmt.Errorf("fpga: partition %s already exists", name)
	}
	sorted := append([]int(nil), frames...)
	sort.Ints(sorted)
	p := &Partition{
		Name:     name,
		Reserve:  reserve,
		Span:     span,
		frames:   sorted,
		frameSet: make(map[int]struct{}, len(sorted)),
	}
	for i, idx := range sorted {
		if idx < 0 || idx >= f.Dev.TotalFrames() {
			return nil, fmt.Errorf("fpga: partition %s frame %d outside device", name, idx)
		}
		if i > 0 && sorted[i-1] == idx {
			return nil, fmt.Errorf("fpga: partition %s has duplicate frame %d", name, idx)
		}
		if other := f.owner[idx]; other != nil {
			return nil, fmt.Errorf("fpga: frame %d already in partition %s", idx, other.Name)
		}
		p.frameSet[idx] = struct{}{}
	}
	for _, idx := range sorted {
		f.owner[idx] = p
	}
	f.parts = append(f.parts, p)
	return p, nil
}

// Partitions returns the fabric's partitions in creation order.
func (f *Fabric) Partitions() []*Partition { return f.parts }

// Partition returns the partition with the given name, or nil.
func (f *Fabric) Partition(name string) *Partition {
	for _, p := range f.parts {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Owner returns the partition owning frame idx, or nil for static (or
// out-of-device) frames. The frame-granular allocator scans it to find
// free fabric.
func (f *Fabric) Owner(idx int) *Partition {
	if idx < 0 || idx >= len(f.owner) {
		return nil
	}
	return f.owner[idx]
}

// RemovePartition releases p's frames back to the static fabric and
// forgets the partition. The configuration memory is untouched — the
// caller blanks the vacated span (or lets the next load overwrite it);
// what is removed is only the reservation. Removing a partition that is
// not on this fabric is an error.
func (f *Fabric) RemovePartition(p *Partition) error {
	at := -1
	for i, q := range f.parts {
		if q == p {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("fpga: partition %s not on this fabric", p.Name)
	}
	for _, idx := range p.frames {
		f.owner[idx] = nil
	}
	f.parts = append(f.parts[:at], f.parts[at+1:]...)
	return nil
}

// RegisterModule associates a frame-content signature with a module
// name. The bitstream builder computes the signature when it generates a
// module's partial bitstream.
func (f *Fabric) RegisterModule(name string, sig uint64) {
	f.sigs[sig] = name
}

// OnModuleLoaded registers a callback fired whenever a partition
// activates a module at the end of a configuration sequence.
func (f *Fabric) OnModuleLoaded(fn func(p *Partition, module string)) {
	f.onLoad = append(f.onLoad, fn)
}

// endOfSequence is called by the ICAP engine on DESYNC.
func (f *Fabric) endOfSequence() {
	dirty := f.Mem.TakeDirty()
	for _, idx := range dirty {
		if p := f.owner[idx]; p != nil {
			p.touched = true
		}
	}
	for _, p := range f.parts { // deterministic order
		if !p.touched {
			continue
		}
		p.touched = false
		f.evaluate(p)
	}
}

func (f *Fabric) evaluate(p *Partition) {
	for _, idx := range p.frames {
		if !f.Mem.Configured(idx) {
			p.active = ""
			return
		}
	}
	sig := f.Mem.signature(p.frames)
	name, ok := f.sigs[sig]
	if !ok {
		p.active = ""
		return
	}
	p.active = name
	p.loads++
	for _, fn := range f.onLoad {
		fn(p, name)
	}
}

// Signature computes the current content signature of p's frames,
// exposed for the bitstream builder and tests.
func (f *Fabric) Signature(p *Partition) uint64 { return f.Mem.signature(p.frames) }
