package fpga_test

import (
	"testing"

	"rvcap/internal/bitstream"
	"rvcap/internal/fpga"
)

func load(t *testing.T, fab *fpga.Fabric, words []uint32) {
	t.Helper()
	ic := fpga.NewICAP(fab)
	ic.WriteWords(words)
	if err := ic.Err(); err != nil {
		t.Fatal(err)
	}
}

func readFrames(t *testing.T, fab *fpga.Fabric) func(int) []uint32 {
	return func(idx int) []uint32 {
		f, err := fab.Mem.ReadFrame(idx)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
}

// TestSignatureMatchesHashFrames checks the incremental signature (the
// per-frame hashes WriteFrame stores, chained) against HashFrames
// recomputed from the frame contents, across interleaved partial loads,
// blanking, partition removal and never-written frames.
func TestSignatureMatchesHashFrames(t *testing.T) {
	dev := fpga.NewKintex7()
	fab := fpga.NewFabric(dev)
	rp0, err := fpga.AddDefaultPartition(fab)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := fpga.NewSpanPartition(fab, "SPARE", 0, 0, 0, 2, fpga.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		for _, p := range fab.Partitions() {
			want := fpga.HashFrames(readFrames(t, fab), p.Frames())
			if got := fab.Signature(p); got != want {
				t.Fatalf("%s: %s signature %#x, recomputed %#x", step, p.Name, got, want)
			}
		}
	}
	check("never written")

	sobel, err := bitstream.Partial(dev, rp0, "sobel", bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bitstream.Register(fab, sobel)
	load(t, fab, sobel.Words)
	if fab.Signature(rp0) != sobel.Signature || rp0.Active() != "sobel" {
		t.Fatalf("loaded signature %#x active %q, want %#x sobel", fab.Signature(rp0), rp0.Active(), sobel.Signature)
	}
	check("partial load")

	blank, err := bitstream.BlankFrames(dev, rp0.Frames()[200:400], bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(t, fab, blank.Words)
	check("blanked span")

	median, err := bitstream.Partial(dev, rp0, "median", bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(t, fab, median.Words)
	check("second module")

	// Re-cut the fabric: the new partition mixes loaded frames with
	// never-written ones taken from the removed SPARE span.
	if err := fab.RemovePartition(rp0); err != nil {
		t.Fatal(err)
	}
	if err := fab.RemovePartition(spare); err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]int(nil), rp0.Frames()[:700]...), spare.Frames()...)
	if _, err := fab.AddPartition("MIXED", mixed, fpga.Resources{}, fpga.Resources{}); err != nil {
		t.Fatal(err)
	}
	check("after RemovePartition")

	// A getter handing back nil for unwritten frames hashes them as
	// zeros, exactly like their readback.
	nilGet := func(idx int) []uint32 {
		if !fab.Mem.Configured(idx) {
			return nil
		}
		return readFrames(t, fab)(idx)
	}
	p := fab.Partition("MIXED")
	if a, b := fpga.HashFrames(nilGet, p.Frames()), fab.Signature(p); a != b {
		t.Fatalf("nil frames hash %#x, zero frames %#x", a, b)
	}
	if fpga.FrameHash(nil) != fpga.FrameHash(make([]uint32, fpga.FrameWords)) {
		t.Fatal("FrameHash(nil) differs from an all-zero frame")
	}
}

// TestSignatureSingleBitFlip flips every one of the 3,232 bits of one
// frame of the paper's partition in turn: each flip must change the
// signature, the guarantee that a corrupted frame never passes for the
// registered module.
func TestSignatureSingleBitFlip(t *testing.T) {
	dev := fpga.NewKintex7()
	fab := fpga.NewFabric(dev)
	rp0, err := fpga.AddDefaultPartition(fab)
	if err != nil {
		t.Fatal(err)
	}
	sobel, err := bitstream.Partial(dev, rp0, "sobel", bitstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(t, fab, sobel.Words)
	orig := fab.Signature(rp0)
	if orig != sobel.Signature {
		t.Fatalf("loaded signature %#x, want %#x", orig, sobel.Signature)
	}
	idx := rp0.Frames()[rp0.NumFrames()/2]
	frame := readFrames(t, fab)(idx)
	for bit := 0; bit < fpga.FrameWords*32; bit++ {
		frame[bit/32] ^= 1 << (bit % 32)
		if err := fab.Mem.WriteFrame(idx, frame); err != nil {
			t.Fatal(err)
		}
		if fab.Signature(rp0) == orig {
			t.Fatalf("flipping bit %d of frame %d leaves the signature unchanged", bit, idx)
		}
		frame[bit/32] ^= 1 << (bit % 32)
	}
	if err := fab.Mem.WriteFrame(idx, frame); err != nil {
		t.Fatal(err)
	}
	if fab.Signature(rp0) != orig {
		t.Fatal("restoring the frame did not restore the signature")
	}
}
