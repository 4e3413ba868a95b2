package accel

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

func constImage(w, h int, v byte) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = v
	}
	return im
}

func TestGaussianPreservesConstant(t *testing.T) {
	src := constImage(16, 16, 77)
	dst, err := Apply(Gaussian, src)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Error("gaussian of constant image changed pixels")
	}
}

func TestMedianPreservesConstantAndKillsSpeckle(t *testing.T) {
	src := constImage(16, 16, 100)
	src.Set(8, 8, 255) // single speckle
	dst, err := Apply(Median, src)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if dst.At(x, y) != 100 {
				t.Fatalf("median at (%d,%d) = %d, want 100 (speckle removed)", x, y, dst.At(x, y))
			}
		}
	}
}

func TestSobelFlatIsZeroEdgeIsStrong(t *testing.T) {
	src := constImage(16, 16, 50)
	dst, _ := Apply(Sobel, src)
	for _, v := range dst.Pix {
		if v != 0 {
			t.Fatal("sobel of flat image is non-zero")
		}
	}
	// Vertical step edge.
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			src.Set(x, y, 250)
		}
	}
	dst, _ = Apply(Sobel, src)
	if dst.At(8, 8) < 200 {
		t.Errorf("sobel at step edge = %d, want strong response", dst.At(8, 8))
	}
	if dst.At(2, 8) != 0 {
		t.Errorf("sobel far from edge = %d, want 0", dst.At(2, 8))
	}
}

func TestGaussianSmoothsImpulse(t *testing.T) {
	src := constImage(9, 9, 0)
	src.Set(4, 4, 160)
	dst, _ := Apply(Gaussian, src)
	if dst.At(4, 4) != 40 { // 160*4/16
		t.Errorf("center = %d, want 40", dst.At(4, 4))
	}
	if dst.At(3, 4) != 20 { // 160*2/16
		t.Errorf("side = %d, want 20", dst.At(3, 4))
	}
	if dst.At(3, 3) != 10 { // 160*1/16
		t.Errorf("corner = %d, want 10", dst.At(3, 3))
	}
}

func TestUnknownFilter(t *testing.T) {
	if _, err := Apply("fft", NewImage(8, 8)); err == nil {
		t.Error("unknown filter accepted")
	}
	k := sim.NewKernel()
	if _, err := NewEngine(k, "fft", 8, 8); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := NewEngine(k, Sobel, 10, 8); err == nil {
		t.Error("non-multiple-of-8 width accepted")
	}
}

func TestFiltersProduceDistinctOutputs(t *testing.T) {
	src := TestPattern(64, 64)
	outs := map[string]*Image{}
	for _, f := range Filters {
		out, err := Apply(f, src)
		if err != nil {
			t.Fatal(err)
		}
		outs[f] = out
	}
	if outs[Sobel].Equal(outs[Median]) || outs[Sobel].Equal(outs[Gaussian]) || outs[Median].Equal(outs[Gaussian]) {
		t.Error("filters produced identical outputs on the test pattern")
	}
}

// runEngine streams src through the named engine and returns the output
// image and the cycle count of the streaming phase.
func runEngine(t *testing.T, name string, src *Image) (*Image, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	e, err := NewEngine(k, name, src.W, src.H)
	if err != nil {
		t.Fatal(err)
	}
	out := NewImage(src.W, src.H)
	var took sim.Time
	k.Go("feed", func(p *sim.Proc) {
		for off := 0; off < len(src.Pix); off += 8 {
			var b axi.Beat
			for i := 0; i < 8; i++ {
				b.Data |= uint64(src.Pix[off+i]) << (8 * i)
			}
			b.Keep = axi.FullKeep
			b.Last = off+8 >= len(src.Pix)
			e.In().Push(p, b)
		}
	})
	k.Go("drain", func(p *sim.Proc) {
		start := p.Now()
		for off := 0; off < len(out.Pix); off += 8 {
			b := e.Out().Pop(p)
			for i := 0; i < 8; i++ {
				out.Pix[off+i] = byte(b.Data >> (8 * i))
			}
			if b.Last && off+8 < len(out.Pix) {
				t.Fatalf("early TLAST at byte %d", off)
			}
		}
		took = p.Now() - start
	})
	k.RunUntil(sim.Time(100_000_000))
	return out, took
}

func TestEngineMatchesReferenceBitExact(t *testing.T) {
	src := TestPattern(64, 32)
	for _, f := range Filters {
		want, _ := Apply(f, src)
		got, _ := runEngine(t, f, src)
		if !got.Equal(want) {
			t.Errorf("%s engine output differs from software reference", f)
		}
	}
}

func TestEngineInitiationIntervals(t *testing.T) {
	// The long-run average II must match the calibrated rational. With
	// unconstrained in/out, total time ~= beats x II + fill.
	src := TestPattern(128, 128)
	beats := len(src.Pix) / 8
	for _, f := range Filters {
		spec := specs[f]
		_, took := runEngine(t, f, src)
		want := float64(beats) * float64(spec.iiNum) / float64(spec.iiDen)
		got := float64(took)
		if got < want*0.98 || got > want*1.05 {
			t.Errorf("%s: streaming took %.0f cycles, want ~%.0f (II %.3f)",
				f, got, want, float64(spec.iiNum)/float64(spec.iiDen))
		}
	}
}

func TestEngineOrderingSobelFastestGaussianSlowest(t *testing.T) {
	src := TestPattern(64, 64)
	var times []sim.Time
	for _, f := range []string{Sobel, Median, Gaussian} {
		_, took := runEngine(t, f, src)
		times = append(times, took)
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("engine times not ordered Sobel < Median < Gaussian: %v", times)
	}
}

func TestEngineProcessesMultipleFrames(t *testing.T) {
	k := sim.NewKernel()
	e, err := NewEngine(k, Gaussian, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := TestPattern(16, 8)
	want, _ := Apply(Gaussian, src)
	for frame := 0; frame < 3; frame++ {
		out := NewImage(16, 8)
		k.Go("feed", func(p *sim.Proc) {
			for off := 0; off < len(src.Pix); off += 8 {
				var b axi.Beat
				for i := 0; i < 8; i++ {
					b.Data |= uint64(src.Pix[off+i]) << (8 * i)
				}
				b.Keep = axi.FullKeep
				b.Last = off+8 >= len(src.Pix)
				e.In().Push(p, b)
			}
		})
		k.Go("drain", func(p *sim.Proc) {
			for off := 0; off < len(out.Pix); off += 8 {
				b := e.Out().Pop(p)
				for i := 0; i < 8; i++ {
					out.Pix[off+i] = byte(b.Data >> (8 * i))
				}
			}
		})
		k.Run()
		if !out.Equal(want) {
			t.Fatalf("frame %d output mismatch", frame)
		}
	}
	if e.BeatsIn() != uint64(3*len(src.Pix)/8) {
		t.Errorf("BeatsIn = %d", e.BeatsIn())
	}
}

func TestImageHelpers(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(0, 0, 9)
	if im.At(-5, -5) != 9 || im.At(0, 0) != 9 {
		t.Error("edge replication broken at origin")
	}
	im.Set(3, 3, 7)
	if im.At(10, 10) != 7 {
		t.Error("edge replication broken at corner")
	}
	c := im.Clone()
	if !c.Equal(im) {
		t.Error("clone not equal")
	}
	c.Set(1, 1, 200)
	if c.Equal(im) {
		t.Error("clone aliases original")
	}
	if im.Equal(NewImage(3, 4)) {
		t.Error("different sizes equal")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	src := TestPattern(32, 24)
	var buf bytes.Buffer
	if err := src.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(src) {
		t.Error("PGM round trip mismatch")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P6 2 2 255\n")); err == nil {
		t.Error("P6 accepted")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5 2 2 255\nab")); err == nil {
		t.Error("short payload accepted")
	}
}

func TestFilterIdempotenceProperties(t *testing.T) {
	// Median and Gaussian never increase the value range; Sobel of a
	// constant region is zero. Property-test on random small images.
	f := func(seed uint8, w8 uint8) bool {
		w := 8 * (1 + int(w8)%4)
		h := 8
		src := TestPattern(w, h)
		for i := range src.Pix {
			src.Pix[i] ^= seed
		}
		lo, hi := byte(255), byte(0)
		for _, v := range src.Pix {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, name := range []string{Median, Gaussian} {
			out, err := Apply(name, src)
			if err != nil {
				return false
			}
			for _, v := range out.Pix {
				if v < lo || v > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refs maps each filter to its naive per-pixel reference.
var refs = map[string]func(n *[9]byte) byte{
	Sobel:    sobelPix,
	Median:   medianPix,
	Gaussian: gaussianPix,
}

// TestFilterRowMatchesNaiveReference holds the row kernels (used by
// Apply and the engine's row pipeline) byte-identical to the naive 9-tap
// At formulation (kernel3x3 over the *Pix functions) on the test pattern
// and on random images of every width from 1 to 70, which exercises
// every border, SWAR tail length and the 512-wide workload shape.
func TestFilterRowMatchesNaiveReference(t *testing.T) {
	var srcs []*Image
	for _, dim := range [][2]int{{8, 8}, {16, 3}, {9, 7}, {64, 64}, {1, 1}, {2, 5}, {512, 512}} {
		srcs = append(srcs, TestPattern(dim[0], dim[1]))
	}
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 70; w++ {
		src := NewImage(w, 1+rng.Intn(6))
		rng.Read(src.Pix)
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		for _, name := range Filters {
			want := kernel3x3(src, refs[name])
			got, err := Apply(name, src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %dx%d: row kernel diverges from naive reference", name, src.W, src.H)
			}
		}
	}
}

// goldenSHA256 pins Apply(f, TestPattern(512, 512)) for each filter to
// the output of the per-pixel kernels that preceded the row kernels, so
// a fault shared by Apply and the engine (which both run the row
// kernels) cannot pass unnoticed.
var goldenSHA256 = map[string]string{
	Gaussian: "a92d4249c2ae043a597674baadea3933ee5afdbb505706a862aa6e7a4c4291a2",
	Median:   "61d4fff51861007d20f9f7a4bb4d623c52500f17fd9c3eac07c64d253c4f1da0",
	Sobel:    "c2f4f2fbd776b33888b34dc8e285a13070b7b91337d180e6466d19146a135682",
}

func TestFilterGoldenHashes(t *testing.T) {
	src := TestPattern(DefaultWidth, DefaultHeight)
	for _, name := range Filters {
		out, err := Apply(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Pix)); got != goldenSHA256[name] {
			t.Errorf("%s: SHA-256 %s, want %s", name, got, goldenSHA256[name])
		}
	}
}

// TestMinMax8Exhaustive checks the SWAR compare-exchange on all 65,536
// byte pairs. Every lane gets a different pair of each word (a and b
// rotate by different strides per lane), so each lane sees every pair
// once and a borrow or mask leaking into a neighbouring lane shows.
func TestMinMax8Exhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			var wa, wb uint64
			for i := 0; i < 8; i++ {
				wa |= uint64(byte(a+37*i)) << (8 * i)
				wb |= uint64(byte(b+101*i)) << (8 * i)
			}
			lo, hi := minmax8(wa, wb)
			for i := 0; i < 8; i++ {
				x, y := byte(wa>>(8*i)), byte(wb>>(8*i))
				if l, h := byte(lo>>(8*i)), byte(hi>>(8*i)); l != min(x, y) || h != max(x, y) {
					t.Fatalf("lane %d of (%#016x, %#016x): minmax8 = (%d, %d), want (%d, %d)",
						i, wa, wb, l, h, min(x, y), max(x, y))
				}
			}
		}
	}
}

// FuzzFilterRows checks every row kernel against the naive reference on
// fuzzer-chosen dimensions and pixels (the pixel bytes tile the image).
// The seeds are the committed corpus under testdata/fuzz.
func FuzzFilterRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h uint8, pix []byte) {
		if len(pix) == 0 {
			return
		}
		src := NewImage(1+int(w)%96, 1+int(h)%12)
		for i := range src.Pix {
			src.Pix[i] = pix[i%len(pix)]
		}
		for _, name := range Filters {
			got, err := Apply(name, src)
			if err != nil {
				t.Fatal(err)
			}
			if want := kernel3x3(src, refs[name]); !got.Equal(want) {
				t.Fatalf("%s %dx%d: row kernel diverges from naive reference", name, src.W, src.H)
			}
		}
	})
}

var sinkImage *Image

// TestFilterAllocs guards the row path's allocation profile: Apply
// allocates its output image and one row scratch, however tall the
// image, and an engine streaming frames allocates nothing per row once
// its row buffers are pooled.
func TestFilterAllocs(t *testing.T) {
	want := testing.AllocsPerRun(10, func() {
		sinkImage = NewImage(64, 4)
		sinkScratch = make([]byte, scratchLen(64))
	})
	for _, name := range Filters {
		for _, h := range []int{4, 256} {
			src := TestPattern(64, h)
			got := testing.AllocsPerRun(10, func() { sinkImage, _ = Apply(name, src) })
			if got != want {
				t.Errorf("%s 64x%d: Apply allocates %v times, want %v (output image + row scratch)", name, h, got, want)
			}
		}
	}

	// Engine: warm-up frames fill the row pool (and the event queue's
	// buckets), then further frames must not allocate at all.
	k := sim.NewKernel()
	e, err := NewEngine(k, Median, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := TestPattern(64, 64)
	beats := make([]axi.Beat, len(src.Pix)/8)
	for i := range beats {
		beats[i] = axi.Beat{Data: binary.LittleEndian.Uint64(src.Pix[8*i:]), Keep: axi.FullKeep, Last: i == len(beats)-1}
	}
	drain := make([]axi.Beat, len(beats))
	got := 0
	var pop func(int)
	pop = func(n int) {
		if got += n; got < len(drain) {
			e.Out().PopBurstAsync(drain[got:], pop)
		}
	}
	pushed := func() {}
	frame := func() {
		got = 0
		e.In().PushBurstAsync(beats, pushed)
		e.Out().PopBurstAsync(drain, pop)
		k.Run()
	}
	for i := 0; i < 10; i++ {
		frame()
	}
	if got := testing.AllocsPerRun(20, frame); got != 0 {
		t.Errorf("engine allocates %v times per steady-state frame, want 0", got)
	}
}

var sinkScratch []byte

// BenchmarkFilterRow times Apply's row kernels over one 512x512 test
// pattern per op.
func BenchmarkFilterRow(b *testing.B) {
	src := TestPattern(DefaultWidth, DefaultHeight)
	dst := NewImage(src.W, src.H)
	scratch := make([]byte, scratchLen(src.W))
	for _, name := range []string{Sobel, Median, Gaussian} {
		row := rowKernels[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src.Pix)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for y := 0; y < src.H; y++ {
					r0, r1, r2 := rowsAround(src, y)
					row(r0, r1, r2, dst.Pix[y*src.W:(y+1)*src.W], scratch)
				}
			}
		})
	}
}
