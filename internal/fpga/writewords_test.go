package fpga_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rvcap/internal/bitstream"
	"rvcap/internal/fpga"
	"rvcap/internal/place"
)

// engine is one fabric plus its configuration port. The differential
// tests build two identical engines and feed them the same words, one
// through WriteWord and one through WriteWords.
type engine struct {
	fab *fpga.Fabric
	ic  *fpga.ICAP
}

// state is everything observable about an engine after a stream.
type state struct {
	words, frames, desyncs, stuck uint64
	synced                        bool
	err                           string
	parts                         []string // name, Active, Loads, frame writes
	staticWr                      uint64
	configured                    []int
	contents                      [][]uint32
	readback                      []uint32
}

// snapshot captures e's state; it drains the readback queue, so it is
// the last thing done with an engine.
func (e *engine) snapshot() state {
	s := state{
		words:    e.ic.Words(),
		frames:   e.ic.FramesWritten(),
		desyncs:  e.ic.Desyncs(),
		stuck:    e.ic.StuckFaults(),
		synced:   e.ic.Synced(),
		staticWr: e.ic.StaticFrameWrites(),
	}
	if err := e.ic.Err(); err != nil {
		s.err = err.Error()
	}
	for _, p := range e.fab.Partitions() {
		s.parts = append(s.parts, fmt.Sprintf("%s active=%q loads=%d writes=%d",
			p.Name, p.Active(), p.Loads(), e.ic.PartitionFrameWrites(p)))
	}
	for idx := 0; idx < e.fab.Dev.TotalFrames(); idx++ {
		if !e.fab.Mem.Configured(idx) {
			continue
		}
		f, err := e.fab.Mem.ReadFrame(idx)
		if err != nil {
			panic(err)
		}
		s.configured = append(s.configured, idx)
		s.contents = append(s.contents, f)
	}
	for {
		w, ok := e.ic.ReadWord()
		if !ok {
			break
		}
		s.readback = append(s.readback, w)
	}
	return s
}

// diffState reports the first difference between two snapshots, or "".
func diffState(a, b state) string {
	switch {
	case a.words != b.words:
		return fmt.Sprintf("Words %d vs %d", a.words, b.words)
	case a.frames != b.frames:
		return fmt.Sprintf("FramesWritten %d vs %d", a.frames, b.frames)
	case a.desyncs != b.desyncs:
		return fmt.Sprintf("Desyncs %d vs %d", a.desyncs, b.desyncs)
	case a.stuck != b.stuck:
		return fmt.Sprintf("StuckFaults %d vs %d", a.stuck, b.stuck)
	case a.synced != b.synced:
		return fmt.Sprintf("Synced %v vs %v", a.synced, b.synced)
	case a.err != b.err:
		return fmt.Sprintf("Err %q vs %q", a.err, b.err)
	case !slices.Equal(a.parts, b.parts):
		return fmt.Sprintf("partitions %q vs %q", a.parts, b.parts)
	case a.staticWr != b.staticWr:
		return fmt.Sprintf("StaticFrameWrites %d vs %d", a.staticWr, b.staticWr)
	case !slices.Equal(a.configured, b.configured):
		return fmt.Sprintf("configured frames differ (%d vs %d)", len(a.configured), len(b.configured))
	case !slices.Equal(a.readback, b.readback):
		return fmt.Sprintf("readback queues differ (%d vs %d words)", len(a.readback), len(b.readback))
	}
	for i := range a.contents {
		if !slices.Equal(a.contents[i], b.contents[i]) {
			return fmt.Sprintf("frame %d contents differ", a.configured[i])
		}
	}
	return ""
}

// splitBursts cuts words into bursts: 0 means one word per burst, -1
// the whole stream as one burst, anything else seeds a random mix of
// 1-word, short, frame-straddling and long bursts.
func splitBursts(words []uint32, seed int64) [][]uint32 {
	var out [][]uint32
	switch seed {
	case 0:
		for i := range words {
			out = append(out, words[i:i+1])
		}
		return out
	case -1:
		return [][]uint32{words}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	for len(words) > 0 {
		var n int
		switch rng.IntN(4) {
		case 0:
			n = 1
		case 1:
			n = 1 + rng.IntN(8)
		case 2:
			n = 1 + rng.IntN(2*fpga.FrameWords+7)
		default:
			n = 1 + rng.IntN(4000)
		}
		n = min(n, len(words))
		out = append(out, words[:n])
		words = words[n:]
	}
	return out
}

// diffRig is the fabric the differential test loads: the paper's RP0
// plus a one-row region R1 that receives a relocated prototype.
type diffRig struct {
	dev           *fpga.Device
	sobel, median *bitstream.Image
	blank         *bitstream.Image
	proto, rel    *bitstream.Image
	rp0Far        uint32
}

func newDiffRig(t *testing.T) *diffRig {
	t.Helper()
	r := &diffRig{dev: fpga.NewKintex7()}
	e := r.engine(t)
	rp0 := e.fab.Partition(fpga.DefaultRPName)
	var err error
	if r.sobel, err = bitstream.Partial(r.dev, rp0, "sobel", bitstream.Options{}); err != nil {
		t.Fatal(err)
	}
	if r.median, err = bitstream.Partial(r.dev, rp0, "median", bitstream.Options{}); err != nil {
		t.Fatal(err)
	}
	if r.blank, err = bitstream.BlankFrames(r.dev, rp0.Frames()[100:300], bitstream.Options{}); err != nil {
		t.Fatal(err)
	}
	fp := place.CLBCols(1, 3, fpga.Resources{})
	var srcRow, srcCol int
	if r.proto, srcRow, srcCol, err = place.Prototype(r.dev, fp, "gauss", bitstream.Options{}); err != nil {
		t.Fatal(err)
	}
	if srcRow != 0 || srcCol != 0 {
		t.Fatalf("prototype anchor (%d,%d), want (0,0)", srcRow, srcCol)
	}
	// R1 (row 1, columns 0-2) is the prototype span moved down one row.
	reg := &place.Region{Name: "R1", Row: 1, Col: 0, FP: fp}
	if r.rel, err = place.Retarget(r.dev, r.proto, srcRow, srcCol, reg); err != nil {
		t.Fatal(err)
	}
	if r.rp0Far, err = r.dev.IndexToFAR(rp0.Frames()[0]); err != nil {
		t.Fatal(err)
	}
	return r
}

// engine builds one fresh fabric of the rig with every module
// registered.
func (r *diffRig) engine(t *testing.T) *engine {
	t.Helper()
	fab := fpga.NewFabric(r.dev)
	if _, err := fpga.AddDefaultPartition(fab); err != nil {
		t.Fatal(err)
	}
	if _, err := fpga.NewSpanPartition(fab, "R1", 1, 1, 0, 2, fpga.Resources{}); err != nil {
		t.Fatal(err)
	}
	for _, im := range []*bitstream.Image{r.sobel, r.median, r.rel} {
		if im != nil {
			bitstream.Register(fab, im)
		}
	}
	return &engine{fab: fab, ic: fpga.NewICAP(fab)}
}

func words(t *testing.T, b []byte) []uint32 {
	t.Helper()
	ws, err := bitstream.BytesToWords(b)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func frameRun(n int, seed uint32) []uint32 {
	ws := make([]uint32, n*fpga.FrameWords)
	for i := range ws {
		ws[i] = seed*0x9E3779B9 + uint32(i)*0x85EBCA6B
	}
	return ws
}

// TestWriteWordsMatchesWriteWord feeds two fresh fabrics the same
// streams, one word by word and one through WriteWords under seeded
// random burst splits (plus 1-word and whole-stream bursts), and
// requires identical engine, partition, memory and readback state.
func TestWriteWordsMatchesWriteWord(t *testing.T) {
	r := newDiffRig(t)
	sobelBytes := r.sobel.Bytes()
	cat := func(parts ...[]uint32) []uint32 { return slices.Concat(parts...) }
	preamble := []uint32{fpga.DummyWord, fpga.SyncWord, fpga.NoopWord}
	desync := []uint32{fpga.Type1Write(fpga.RegCMD, 1), fpga.CmdDesync, fpga.NoopWord}
	idcodeAt := slices.Index(r.sobel.Words, fpga.Type1Write(fpga.RegIDCODE, 1)) + 1

	active := func(part, mod string) func(state) bool {
		return func(s state) bool {
			return slices.ContainsFunc(s.parts, func(p string) bool {
				return strings.HasPrefix(p, fmt.Sprintf("%s active=%q", part, mod))
			})
		}
	}
	errHas := func(sub string) func(state) bool {
		return func(s state) bool { return strings.Contains(s.err, sub) }
	}
	// Each stream names the path it exercises (shows is checked on the
	// word-by-word reference run), so a stream that stops reaching its
	// path fails here instead of passing vacuously.
	streams := []struct {
		name  string
		words []uint32
		stuck bool
		shows func(state) bool
	}{
		{"partial", r.sobel.Words, false, active("RP0", "sobel")},
		{"partial-blank-partial", cat(r.sobel.Words, r.blank.Words, r.median.Words), false, active("RP0", "median")},
		{"relocated", cat(r.rel.Words, r.sobel.Words), false, active("R1", "gauss")},
		{"flipbit-payload", cat(words(t, bitstream.FlipBit(sobelBytes, len(sobelBytes)*4)), r.median.Words),
			false, errHas("CRC mismatch")},
		{"flipbit-idcode", words(t, bitstream.FlipBit(sobelBytes, 8*(4*idcodeAt+3))), false, errHas("IDCODE mismatch")},
		{"truncate", cat(words(t, bitstream.Truncate(sobelBytes, len(sobelBytes)/2+6)), r.median.Words),
			false, func(s state) bool { return s.err != "" && s.frames > 0 }},
		{"fdri-without-far", cat(preamble,
			[]uint32{fpga.Type1Write(fpga.RegCMD, 1), fpga.CmdWCFG,
				fpga.Type1Write(fpga.RegFDRI, 0), fpga.Type2Write(3 * fpga.FrameWords)},
			frameRun(3, 1), desync), false, errHas("FDRI without valid FAR")},
		{"fdri-before-wcfg", cat(preamble,
			[]uint32{fpga.Type1Write(fpga.RegFAR, 1), r.rp0Far,
				fpga.Type1Write(fpga.RegFDRI, 2*fpga.FrameWords)},
			frameRun(2, 2), desync), false, errHas(fpga.ErrNotWCFG.Error())},
		{"readback", cat(r.sobel.Words, preamble,
			[]uint32{fpga.Type1Write(fpga.RegCMD, 1), fpga.CmdRCFG,
				fpga.Type1Write(fpga.RegFAR, 1), r.rp0Far,
				fpga.Type1Read(fpga.RegFDRO, 0), fpga.Type2Read(3 * fpga.FrameWords)},
			desync), false, func(s state) bool { return len(s.readback) == 3*fpga.FrameWords }},
		{"stuck-desync", cat(r.sobel.Words, r.median.Words, r.sobel.Words), true,
			func(s state) bool { return s.stuck > 0 && s.desyncs > 0 }},
	}
	splits := []int64{0, -1, 1, 2, 3, 4, 5}
	for _, st := range streams {
		for _, seed := range splits {
			t.Run(fmt.Sprintf("%s/split%d", st.name, seed), func(t *testing.T) {
				ref, got := r.engine(t), r.engine(t)
				if st.stuck {
					stuck := func(n uint64) bool { return n%2 == 0 }
					ref.ic.StuckFault, got.ic.StuckFault = stuck, stuck
				}
				for _, w := range st.words {
					ref.ic.WriteWord(w)
				}
				for _, b := range splitBursts(st.words, seed) {
					got.ic.WriteWords(b)
				}
				want := ref.snapshot()
				if !st.shows(want) {
					t.Fatalf("reference run misses the path under test: err=%q parts=%q frames=%d readback=%d stuck=%d",
						want.err, want.parts, want.frames, len(want.readback), want.stuck)
				}
				if d := diffState(want, got.snapshot()); d != "" {
					t.Fatalf("WriteWords diverges from WriteWord: %s", d)
				}
			})
		}
	}
}

// TestWriteWordsZeroAlloc guards the fast lane: once the engine's frame
// buffers, CRC run and dirty lists are warm, a full partial load of the
// paper's RP through WriteWords allocates nothing.
func TestWriteWordsZeroAlloc(t *testing.T) {
	r := newDiffRig(t)
	e := r.engine(t)
	e.ic.WriteWords(r.sobel.Words)
	allocs := testing.AllocsPerRun(3, func() { e.ic.WriteWords(r.sobel.Words) })
	if allocs != 0 {
		t.Fatalf("warm partial load through WriteWords: %v allocs, want 0", allocs)
	}
	if err := e.ic.Err(); err != nil {
		t.Fatal(err)
	}
	if got := e.fab.Partition(fpga.DefaultRPName).Active(); got != "sobel" {
		t.Fatalf("active = %q, want sobel", got)
	}
}

// fuzzFrames is the partition of the fuzz fabric: two short frame runs,
// so seed streams stay small.
var fuzzFrames = []int{0, 1, 2, 40, 41}

func fuzzEngine(tb testing.TB, dev *fpga.Device, ims ...*bitstream.Image) *engine {
	fab := fpga.NewFabric(dev)
	if _, err := fab.AddPartition("F", fuzzFrames, fpga.Resources{}, fpga.Resources{}); err != nil {
		tb.Fatal(err)
	}
	for _, im := range ims {
		bitstream.Register(fab, im)
	}
	return &engine{fab: fab, ic: fpga.NewICAP(fab)}
}

// fuzzSeeds builds the committed seed corpus of FuzzICAPBurstSplit:
// a partial and a blanking image of the fuzz partition, each under a
// few burst splits, plus corrupted variants.
func fuzzSeeds(tb testing.TB) (seeds [][2][]byte, sobel *bitstream.Image) {
	dev := fpga.NewKintex7()
	part := fuzzEngine(tb, dev).fab.Partition("F")
	sobel, err := bitstream.Partial(dev, part, "sobel", bitstream.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	blank, err := bitstream.BlankFrames(dev, fuzzFrames[1:4], bitstream.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sb, bb := sobel.Bytes(), blank.Bytes()
	seeds = [][2][]byte{
		{sb, nil},                    // whole stream in one burst
		{sb, []byte{0}},              // one word, then the rest
		{sb, []byte{6, 100, 3, 255}}, // mixed bursts straddling frames
		{bb, []byte{17, 0, 99}},
		{slices.Concat(bb, sb), []byte{50, 200, 1}},
		{bitstream.FlipBit(sb, len(sb)*4+5), []byte{100, 100}},
		{bitstream.Truncate(sb, len(sb)*2/3), []byte{7}},
	}
	return seeds, sobel
}

// FuzzICAPBurstSplit is a differential fuzz target for the burst ingest
// path: arbitrary bytes become big-endian configuration words, cuts
// gives the burst lengths (byte c = a burst of c+1 words; the rest of
// the stream goes in one final burst), and WriteWords must leave the
// same state as WriteWord on every word in order.
func FuzzICAPBurstSplit(f *testing.F) {
	// The seeds are the committed corpus under testdata/fuzz, written
	// by TestFuzzCorpusCurrent.
	_, sobel := fuzzSeeds(f)
	dev := fpga.NewKintex7()
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		ws := make([]uint32, len(stream)/4)
		for i := range ws {
			b := stream[4*i:]
			ws[i] = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		}
		ref, got := fuzzEngine(t, dev, sobel), fuzzEngine(t, dev, sobel)
		for _, w := range ws {
			ref.ic.WriteWord(w)
		}
		rest := ws
		for _, c := range cuts {
			n := min(int(c)+1, len(rest))
			got.ic.WriteWords(rest[:n])
			rest = rest[n:]
		}
		got.ic.WriteWords(rest)
		if d := diffState(ref.snapshot(), got.snapshot()); d != "" {
			t.Fatalf("WriteWords diverges from WriteWord: %s", d)
		}
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzICAPBurstSplit seed corpus")

// TestFuzzCorpusCurrent keeps the committed seed corpus in step with
// the generator (go test ./internal/fpga -run TestFuzzCorpusCurrent
// -update-corpus rewrites it). Crashers committed next to the seeds are
// left alone.
func TestFuzzCorpusCurrent(t *testing.T) {
	seeds, _ := fuzzSeeds(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzICAPBurstSplit")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range seeds {
		want := fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", s[0], s[1])
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if *updateCorpus {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		have, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-corpus)", err)
		}
		if !bytes.Equal(have, want) {
			t.Fatalf("%s is stale (regenerate with -update-corpus)", path)
		}
	}
}
