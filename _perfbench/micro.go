package main

import (
	"fmt"
	"time"

	"rvcap/internal/accel"
	"rvcap/internal/axi"
	"rvcap/internal/bitstream"
	"rvcap/internal/fpga"
	"rvcap/internal/hist"
	"rvcap/internal/sim"
)

// Layer micro-measurements: each calls one layer's exported functions
// in isolation and reports a per-unit host cost, the median of microReps
// repetitions. Each also checks its own result.

const microReps = 5

// perUnit runs fn microReps times and returns the median host ns per
// unit of work.
func perUnit(units float64, fn func() error) (float64, error) {
	var ns []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/units)
	}
	return median(ns), nil
}

func runMicro() ([]metric, error) {
	var out []metric
	add := func(name, unit string, units float64, fn func() error) error {
		v, err := perUnit(units, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, metric{name, v, unit})
		return nil
	}

	// The paper-size bitstream of one filter for the default partition.
	dev := fpga.NewKintex7()
	fab := fpga.NewFabric(dev)
	rp, err := fpga.AddDefaultPartition(fab)
	if err != nil {
		return nil, err
	}
	opts := bitstream.Options{PadToBytes: bitstream.DefaultBitstreamBytes}
	im, err := bitstream.Partial(dev, rp, accel.Sobel, opts)
	if err != nil {
		return nil, err
	}
	mb := float64(im.SizeBytes()) / 1e6

	if err := add("bitstream.partial_ns_per_mb", "ns/MB", mb, func() error {
		_, err := bitstream.Partial(dev, rp, accel.Sobel, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("bitstream.parse_ns_per_mb", "ns/MB", mb, func() error {
		s, err := bitstream.Parse(im.Words)
		if err == nil && (!s.CRCValid || !s.Desynced) {
			err = fmt.Errorf("parse: CRC valid %v, desynced %v", s.CRCValid, s.Desynced)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// ICAP ingest on a bare fabric: the whole bitstream, word by word,
	// must leave the partition running the module.
	bitstream.Register(fab, im)
	icap := fpga.NewICAP(fab)
	if err := add("fpga.icap_ns_per_mb", "ns/MB", mb, func() error {
		for _, w := range im.Words {
			icap.WriteWord(w)
		}
		if rp.Active() != accel.Sobel {
			return fmt.Errorf("partition runs %q after the ICAP load, want %q", rp.Active(), accel.Sobel)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	frame := func(idx int) []uint32 {
		f, _ := fab.Mem.ReadFrame(idx)
		return f
	}
	hashMB := float64(rp.NumFrames()*fpga.FrameWords*4) / 1e6
	if err := add("fpga.hash_ns_per_mb", "ns/MB", hashMB, func() error {
		if fpga.HashFrames(frame, rp.Frames()) != im.Signature {
			return fmt.Errorf("frame hash differs from the module signature")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	const beats = 1 << 18
	if err := add("axi.stream_hop_ns_per_beat", "ns", beats, func() error { return streamHop(beats) }); err != nil {
		return nil, err
	}
	const events = 1 << 19
	if err := add("sim.schedule_ns", "ns", events, func() error { return scheduleFire(events) }); err != nil {
		return nil, err
	}
	const sleeps = 1 << 17
	if err := add("sim.proc_switch_ns", "ns", sleeps, func() error { return procSleep(sleeps) }); err != nil {
		return nil, err
	}
	const records = 1 << 20
	if err := add("hist.record_ns", "ns", records, func() error { return histRecord(records) }); err != nil {
		return nil, err
	}
	const merges = 1 << 12
	if err := add("hist.merge_ns", "ns", merges, func() error { return histMerge(merges) }); err != nil {
		return nil, err
	}
	return out, nil
}

// streamHop moves n beats through one 16-deep stream in 16-beat bursts,
// producer and consumer each issuing one burst per cycle.
func streamHop(n int) error {
	k := sim.NewKernel()
	s := axi.NewStream(k, "hop", 16)
	src := make([]axi.Beat, 16)
	for i := range src {
		src[i] = axi.Beat{Data: uint64(i), Keep: axi.FullKeep}
	}
	dst := make([]axi.Beat, 16)
	pushed, popped := 0, 0
	var pushStep, popStep func()
	afterPush := func() {
		pushed += len(src)
		if pushed < n {
			k.Schedule(1, pushStep)
		}
	}
	afterPop := func(m int) {
		popped += m
		if popped < n {
			k.Schedule(1, popStep)
		}
	}
	pushStep = func() { s.PushBurstAsync(src, afterPush) }
	popStep = func() { s.PopBurstAsync(dst, afterPop) }
	k.Schedule(1, pushStep)
	k.Schedule(1, popStep)
	k.Run()
	if popped != n || s.Popped() != uint64(n) {
		return fmt.Errorf("stream delivered %d of %d beats", popped, n)
	}
	return nil
}

// scheduleFire schedules n events at spread-out delays and drains them.
func scheduleFire(n int) error {
	k := sim.NewKernel()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < n; i++ {
		k.Schedule(sim.Time(1+i%512), fn)
	}
	k.Run()
	if fired != n {
		return fmt.Errorf("fired %d of %d events", fired, n)
	}
	return nil
}

// procSleep measures the Proc.Sleep round trip: park the coroutine, fire
// its wake event, resume.
func procSleep(n int) error {
	k := sim.NewKernel()
	k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	k.Run()
	if k.Now() != sim.Time(n) {
		return fmt.Errorf("sleeper ended at cycle %d, want %d", k.Now(), n)
	}
	return nil
}

// histRecord records n latencies spread over six decades.
func histRecord(n int) error {
	h := hist.New()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Record(x % 1_000_000)
	}
	if h.N() != uint64(n) {
		return fmt.Errorf("histogram holds %d of %d records", h.N(), n)
	}
	return nil
}

// histMerge merges one populated histogram into another n times.
func histMerge(n int) error {
	src := hist.New()
	for v := uint64(1); v < 1_000_000; v = v*21/20 + 1 {
		src.Record(v)
	}
	dst := hist.New()
	for i := 0; i < n; i++ {
		dst.Merge(src)
	}
	if dst.N() != uint64(n)*src.N() {
		return fmt.Errorf("merged histogram holds %d records, want %d", dst.N(), uint64(n)*src.N())
	}
	return nil
}
