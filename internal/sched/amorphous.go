package sched

import (
	"errors"
	"fmt"

	"rvcap/internal/accel"
	"rvcap/internal/bitstream"
	"rvcap/internal/fpga"
	"rvcap/internal/place"
	"rvcap/internal/sim"
)

// Amorphous mode replaces the fixed pre-cut partitions with
// frame-granular placement (Amorphous DPR, arXiv 1710.08270): the RPs
// knob becomes a number of region *slots*, each module declares a
// distinct footprint, and the dispatcher carves a region out of the
// placement window at load time. One prototype bitstream per module is
// staged through the ordinary SD→DDR cache and relocated on the hart to
// whichever anchor the allocator assigned; when no anchor fits, the
// dispatcher defragments idle regions, then reclaims them, and only
// waits (for a busy slot to drain) when the window is genuinely full.

// amorphousWindow is the placement window on the Kintex-7 geometry:
// clock region 0, columns 0-12. Column 6 is a BRAM column, so a CLB
// footprint sees two six-column runs — the same fabric the fixed
// rpColumnPairs cut carves into width-2 slots.
func amorphousWindow() place.Window {
	return place.Window{Row0: 0, Row1: 0, Col0: 0, Col1: 12}
}

// moduleFootprint gives each filter a distinct frame-span footprint
// (CLB columns x one clock region), so a mixed workload exercises
// variable-size placement: Sobel 2, Median 3, Gaussian 4 columns.
func moduleFootprint(module string) place.Footprint {
	cols := 2
	switch module {
	case accel.Median:
		cols = 3
	case accel.Gaussian:
		cols = 4
	}
	return place.CLBCols(1, cols, fpga.Resources{LUT: cols * 300, FF: cols * 600})
}

// relocBase is the DDR scratch buffer the hart writes relocated
// bitstreams to before pointing the DMA at them (clear of the staging
// slots at cacheBase and well inside the default 64 MiB DDR).
const relocBase = 0x0300_0000

// relocWordsPerCycle is the modelled hart throughput of the FAR-rewrite
// pass over a staged stream (a memcpy with a compare per word).
const relocWordsPerCycle = 4

// icapWordsPerCycle is the raw ICAP port rate used for maintenance
// loads (defrag relocations, span blanking) that bypass the DMA: the
// 32-bit ICAP accepts one word per 100 MHz cycle.
const icapWordsPerCycle = 1

// setupAmorphous builds the placement allocator, the per-module
// prototype images and the region slots on a fresh board.
func (r *Runtime) setupAmorphous(k *sim.Kernel) error {
	alloc, err := place.New(r.s.Fabric, amorphousWindow(), r.cfg.PlacePolicy)
	if err != nil {
		return err
	}
	r.alloc = alloc
	r.protoAnchor = make([][2]int, Modules.Len())
	for _, module := range accel.Filters {
		fp := moduleFootprint(module)
		if !alloc.ShapeEverFits(fp) {
			return fmt.Errorf("sched: footprint of %s (%d cols) can never fit the window", module, fp.Width())
		}
		probe, _, _, err := place.Prototype(r.s.Fabric.Dev, fp, module, bitstream.Options{})
		if err != nil {
			return err
		}
		num, den := padFactor(module)
		im, pr, pc, err := place.Prototype(r.s.Fabric.Dev, fp, module,
			bitstream.Options{PadToBytes: (probe.SizeBytes()*num/den + 3) &^ 3})
		if err != nil {
			return err
		}
		bitstream.Register(r.s.Fabric, im)
		id := Modules.Intern(module)
		r.images[imgKey{rp: 0, mod: id}] = im
		r.protoAnchor[id] = [2]int{pr, pc}
	}
	for i := 0; i < r.cfg.RPs; i++ {
		name := fmt.Sprintf("SRP%d", i)
		r.rps = append(r.rps, &rpState{
			name:       name,
			start:      sim.NewSignal(k, name+".start"),
			residentID: -1,
		})
	}
	return nil
}

// imageKey maps a (slot, module-ID) pair to the image the cache stages:
// in amorphous mode every slot shares the module's one prototype.
func (r *Runtime) imageKey(pi int, mod int) imgKey {
	if r.cfg.Amorphous {
		return imgKey{rp: 0, mod: mod}
	}
	return imgKey{rp: pi, mod: mod}
}

// slotOf returns the slot currently holding reg, or nil.
func (r *Runtime) slotOf(reg *place.Region) *rpState {
	for _, rp := range r.rps {
		if rp.region == reg {
			return rp
		}
	}
	return nil
}

// movableRegion reports whether a region may be relocated by a defrag
// pass: its slot must be idle, healthy, and hold a loaded module to
// carry along.
func (r *Runtime) movableRegion(reg *place.Region) bool {
	rp := r.slotOf(reg)
	return rp != nil && !rp.busy && !rp.quarantined && rp.residentID >= 0
}

// icapLoad drives a maintenance bitstream (defrag relocation or span
// blanking) straight into the ICAP port, charging the port time. A
// latched configuration-engine error surfaces as a load fault.
func (r *Runtime) icapLoad(p *sim.Proc, words []uint32) error {
	r.s.ICAP.WriteWords(words)
	p.Sleep(sim.Time(len(words) / icapWordsPerCycle))
	if err := r.s.ICAP.Err(); err != nil {
		return fmt.Errorf("%w: maintenance load: %v", errLoadFaulty, err)
	}
	return nil
}

// applyMove carries a defrag move's configuration to its new anchor:
// the resident module's prototype is relocated and loaded at the new
// position, the vacated span is blanked, and the slot's decouple-bit
// wiring follows the new partition.
func (r *Runtime) applyMove(p *sim.Proc, m place.Move) error {
	rp := r.slotOf(m.Region)
	if rp == nil {
		return fmt.Errorf("sched: defrag moved unowned region %s", m.Region.Name)
	}
	im := r.images[imgKey{rp: 0, mod: rp.residentID}]
	anchor := r.protoAnchor[rp.residentID]
	rel, err := place.Retarget(r.s.Fabric.Dev, im, anchor[0], anchor[1], m.Region)
	if err != nil {
		return err
	}
	p.Sleep(sim.Time(len(rel.Words) / relocWordsPerCycle)) // hart rewrites the stream
	if err := r.icapLoad(p, rel.Words); err != nil {
		return err
	}
	if vac := m.VacatedFrames(); len(vac) > 0 {
		blank, err := bitstream.BlankFrames(r.s.Fabric.Dev, vac, bitstream.Options{})
		if err != nil {
			return err
		}
		if err := r.icapLoad(p, blank.Words); err != nil {
			return err
		}
	}
	if err := r.s.ReleasePartition(rp.part); err != nil {
		return err
	}
	if _, _, err := r.s.WirePartition(m.Region.Part); err != nil {
		return err
	}
	rp.part = m.Region.Part
	return nil
}

// releaseRegion destroys a slot's region: unwire, free the reservation,
// and blank the whole vacated span so stale logic does not linger.
func (r *Runtime) releaseRegion(p *sim.Proc, rp *rpState) error {
	if rp.region == nil {
		return nil
	}
	frames := append([]int(nil), rp.region.Part.Frames()...)
	if err := r.s.ReleasePartition(rp.part); err != nil {
		return err
	}
	if err := r.alloc.Free(rp.region); err != nil {
		return err
	}
	rp.region, rp.part, rp.residentID = nil, nil, -1
	blank, err := bitstream.BlankFrames(r.s.Fabric.Dev, frames, bitstream.Options{})
	if err != nil {
		return err
	}
	return r.icapLoad(p, blank.Words)
}

// defragPass runs one compaction over the idle regions, recording the
// before/after fragmentation gauge.
func (r *Runtime) defragPass(p *sim.Proc) error {
	before := r.alloc.ExternalFragPct()
	moves, err := r.alloc.Defrag(r.movableRegion, func(m place.Move) error { return r.applyMove(p, m) })
	if err != nil {
		return err
	}
	if len(moves) > 0 {
		r.defragPre += before
		r.defragPost += r.alloc.ExternalFragPct()
		r.defragN++
	}
	return nil
}

// placeRegion gives slot pi a region shaped for module, reusing the
// slot's current region when the shape already matches. On ErrNoSpace
// it escalates: defragment idle regions, then reclaim them outright and
// defragment again; only when the window is still full does ErrNoSpace
// reach the caller.
func (r *Runtime) placeRegion(p *sim.Proc, rp *rpState, pi int, module string) error {
	fp := moduleFootprint(module)
	if rp.region != nil {
		if rp.region.FP.Rows == fp.Rows && rp.region.FP.Width() == fp.Width() {
			return nil // same shape: reload in place
		}
		if err := r.releaseRegion(p, rp); err != nil {
			return err
		}
	}
	r.placeSeq++
	name := fmt.Sprintf("R%d", r.placeSeq)
	reg, err := r.alloc.Alloc(name, fp)
	if errors.Is(err, place.ErrNoSpace) {
		if derr := r.defragPass(p); derr != nil {
			return derr
		}
		reg, err = r.alloc.Alloc(name, fp)
	}
	if errors.Is(err, place.ErrNoSpace) {
		// Defrag was not enough: reclaim every idle region, compact, and
		// try once more.
		for _, other := range r.rps {
			if other != rp && !other.busy && !other.quarantined && other.region != nil {
				if rerr := r.releaseRegion(p, other); rerr != nil {
					return rerr
				}
			}
		}
		if derr := r.defragPass(p); derr != nil {
			return derr
		}
		reg, err = r.alloc.Alloc(name, fp)
	}
	if err != nil {
		return err
	}
	if _, _, err := r.s.WirePartition(reg.Part); err != nil {
		return err
	}
	rp.region, rp.part = reg, reg.Part
	r.fragSum += r.alloc.ExternalFragPct()
	r.fragN++
	return nil
}

// ensurePlaced prepares slot pi's region for job. It returns ok=false
// when the window is full and the job was requeued to wait for a busy
// slot to drain — which must exist, or the scenario can never place the
// job and fails.
func (r *Runtime) ensurePlaced(p *sim.Proc, rp *rpState, pi int, job *Job) (bool, error) {
	err := r.placeRegion(p, rp, pi, job.Module)
	if err == nil {
		return true, nil
	}
	if !errors.Is(err, place.ErrNoSpace) {
		return false, err
	}
	busy := 0
	for _, other := range r.rps {
		if other != rp && other.busy {
			busy++
		}
	}
	if busy == 0 {
		return false, fmt.Errorf("sched: module %s (%d cols) cannot be placed even on a reclaimed window: %v",
			job.Module, moduleFootprint(job.Module).Width(), err)
	}
	rp.busy = false
	r.queue = append([]*Job{job}, r.queue...)
	r.placeWaits++
	//lint:ignore wait-graph placement backpressure rides the dispatcher's designed wake heartbeat: a busy slot exists (checked above) and its completion re-fires wake, after which the requeued job re-attempts placement
	p.Wait(r.wake)
	return false, nil
}

// stageRelocated turns the staged prototype at e into a load for rp's
// region: the hart reads the staged words back from DDR, rewrites the
// FAR packets to the region's anchor, and writes the relocated stream
// to the relocation scratch buffer the DMA will read. A stream that
// fails relocation (corrupted while staging) is a load fault — the
// caller heals and re-stages.
func (r *Runtime) stageRelocated(p *sim.Proc, rp *rpState, key imgKey, e *cacheEntry) (uint64, uint32, error) {
	words, err := bitstream.BytesToWords(r.s.DDR.Peek(e.addr, e.bytes))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: staged %s: %v", errLoadFaulty, key.moduleName(), err)
	}
	anchor := r.protoAnchor[key.mod]
	shifted, err := bitstream.Relocate(words,
		place.Shift(r.s.Fabric.Dev, anchor[0], anchor[1], rp.region.Row, rp.region.Col))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: relocating %s to %s: %v", errLoadFaulty, key.moduleName(), rp.region.Name, err)
	}
	p.Sleep(sim.Time(len(words) / relocWordsPerCycle))
	r.s.DDR.Load(relocBase, bitstream.WordsToBytes(shifted))
	return relocBase, uint32(len(shifted) * 4), nil
}
