package accel

import "encoding/binary"

// Filter names, matching the reconfigurable-module identities used in
// bitstreams and the fabric registry.
const (
	Sobel    = "sobel"
	Median   = "median"
	Gaussian = "gaussian"
)

// Filters lists the case study's three modules in the paper's Table IV
// order.
var Filters = []string{Gaussian, Median, Sobel}

// kernel3x3 applies f to every 3x3 neighbourhood (edge-replicated).
func kernel3x3(src *Image, f func(n *[9]byte) byte) *Image {
	dst := NewImage(src.W, src.H)
	var n [9]byte
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			n[0], n[1], n[2] = src.At(x-1, y-1), src.At(x, y-1), src.At(x+1, y-1)
			n[3], n[4], n[5] = src.At(x-1, y), src.At(x, y), src.At(x+1, y)
			n[6], n[7], n[8] = src.At(x-1, y+1), src.At(x, y+1), src.At(x+1, y+1)
			dst.Set(x, y, f(&n))
		}
	}
	return dst
}

// sobelPix computes |Gx| + |Gy| saturated to 255.
func sobelPix(n *[9]byte) byte {
	gx := -int(n[0]) + int(n[2]) - 2*int(n[3]) + 2*int(n[5]) - int(n[6]) + int(n[8])
	gy := -int(n[0]) - 2*int(n[1]) - int(n[2]) + int(n[6]) + 2*int(n[7]) + int(n[8])
	if gx < 0 {
		gx = -gx
	}
	if gy < 0 {
		gy = -gy
	}
	s := gx + gy
	if s > 255 {
		s = 255
	}
	return byte(s)
}

// order sorts a pair in place.
func order(a, b *byte) {
	if *b < *a {
		*a, *b = *b, *a
	}
}

// medianPix selects the middle of the 9 neighbourhood values with the
// 19-exchange median-of-9 network (Smith, via Devillard's "Fast median
// search" note) — the same comparator tree HLS would synthesize, and
// allocation-free unlike a general sort.
func medianPix(n *[9]byte) byte {
	v := *n
	order(&v[1], &v[2])
	order(&v[4], &v[5])
	order(&v[7], &v[8])
	order(&v[0], &v[1])
	order(&v[3], &v[4])
	order(&v[6], &v[7])
	order(&v[1], &v[2])
	order(&v[4], &v[5])
	order(&v[7], &v[8])
	order(&v[0], &v[3])
	order(&v[5], &v[8])
	order(&v[4], &v[7])
	order(&v[3], &v[6])
	order(&v[1], &v[4])
	order(&v[2], &v[5])
	order(&v[4], &v[7])
	order(&v[4], &v[2])
	order(&v[6], &v[4])
	order(&v[4], &v[2])
	return v[4]
}

// gaussianPix applies the 3x3 binomial kernel (1 2 1; 2 4 2; 1 2 1)/16
// with rounding.
func gaussianPix(n *[9]byte) byte {
	s := int(n[0]) + 2*int(n[1]) + int(n[2]) +
		2*int(n[3]) + 4*int(n[4]) + 2*int(n[5]) +
		int(n[6]) + 2*int(n[7]) + int(n[8])
	return byte((s + 8) / 16)
}

// The row kernels below are the fast path behind Apply and the engine.
// Each computes one output row from its three source rows (r0 above,
// r1 centre, r2 below, edge-replicated by the caller) and keeps the
// output byte-identical to the *Pix references over kernel3x3. Work is
// split by column: every input column of three is reduced once and the
// three windows sharing it combine the reduced values horizontally.
//
//   - The median sorts each column (lo <= mid <= hi) into edge-padded
//     planes in the caller's scratch (index x+1 holds column x; 0 and
//     w+1 replicate the edges, so no pixel pays an edge clamp), then
//     uses the exact identity median9 = med3(max3(lo), med3(mid),
//     min3(hi)) — the decomposition medianPix's 19-exchange network is
//     built from. Both steps run eight pixels per uint64 with SWAR
//     byte-lane compare-exchanges, with a scalar tail for widths that
//     are not a multiple of 8.
//   - Gaussian and Sobel are separable: the vertical [1 2 1] sum feeds
//     the Gaussian and Sobel's Gx, the vertical r2-r0 difference feeds
//     Gy. The sums of the previous, current and next column roll
//     through registers, and the last pixel, whose next column is its
//     own, is peeled off the loop.

// rowKernel computes one output row into dst (len(dst) == len(r0) ==
// len(r1) == len(r2) > 0) using scratch, which holds at least
// scratchLen(len(dst)) bytes.
type rowKernel func(r0, r1, r2, dst, scratch []byte)

// rowKernels binds each filter name to its row kernel.
var rowKernels = map[string]rowKernel{
	Sobel:    sobelRow,
	Median:   medianRow,
	Gaussian: gaussianRow,
}

// scratchLen is the row scratch a kernel needs for rows of w pixels:
// the median's three edge-padded planes of sorted columns.
func scratchLen(w int) int { return 3 * (w + 2) }

// rowsAround returns the three source rows of output row y, replicating
// the top and bottom edges.
func rowsAround(src *Image, y int) (r0, r1, r2 []byte) {
	w := src.W
	y0, y2 := max(y-1, 0), min(y+1, src.H-1)
	return src.Pix[y0*w : y0*w+w], src.Pix[y*w : y*w+w], src.Pix[y2*w : y2*w+w]
}

// Byte-lane SWAR constant: the high bit of every byte.
const lanesHi = 0x8080808080808080

// minmax8 returns the lane-wise unsigned minimum and maximum of the
// eight bytes packed in a and b. Bit 7 of a lane of lt is the borrow
// out of that lane of a-b, computed without letting a borrow cross
// into the next lane: setting a's top bits and clearing b's keeps each
// lane's 7-bit subtraction local, and the top-bit borrow is rebuilt
// from a's, b's and the partial result's bit 7.
func minmax8(a, b uint64) (lo, hi uint64) {
	r := (a | lanesHi) - (b &^ lanesHi)
	lt := (b &^ a) | ^((a ^ b) | r)
	m := ((lt & lanesHi) >> 7) * 0xff // 0xff in every lane where a < b
	x := (a ^ b) & m
	return b ^ x, a ^ x
}

func min8(a, b uint64) uint64 { lo, _ := minmax8(a, b); return lo }
func max8(a, b uint64) uint64 { _, hi := minmax8(a, b); return hi }

// med8 returns the lane-wise median of three.
func med8(a, b, c uint64) uint64 {
	a, b = minmax8(a, b)
	return max8(a, min8(b, c))
}

// med3 is the scalar median of three.
func med3(a, b, c byte) byte {
	return max(min(a, b), min(max(a, b), c))
}

// padEdges replicates the first and last column of a padded plane.
func padEdges(p []byte) {
	p[0], p[len(p)-1] = p[1], p[len(p)-2]
}

func medianRow(r0, r1, r2, dst, scratch []byte) {
	w := len(dst)
	r0, r1, r2 = r0[:w], r1[:w], r2[:w]
	n := w + 2
	lo, mid, hi := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	le := binary.LittleEndian
	x := 0
	for ; x+8 <= w; x += 8 {
		a, b := minmax8(le.Uint64(r0[x:]), le.Uint64(r1[x:]))
		b, c := minmax8(b, le.Uint64(r2[x:]))
		a, b = minmax8(a, b)
		le.PutUint64(lo[x+1:], a)
		le.PutUint64(mid[x+1:], b)
		le.PutUint64(hi[x+1:], c)
	}
	for ; x < w; x++ {
		a, b, c := r0[x], r1[x], r2[x]
		lo[x+1] = min(a, b, c)
		mid[x+1] = med3(a, b, c)
		hi[x+1] = max(a, b, c)
	}
	padEdges(lo)
	padEdges(mid)
	padEdges(hi)
	x = 0
	for ; x+8 <= w; x += 8 {
		l := max8(max8(le.Uint64(lo[x:]), le.Uint64(lo[x+1:])), le.Uint64(lo[x+2:]))
		m := med8(le.Uint64(mid[x:]), le.Uint64(mid[x+1:]), le.Uint64(mid[x+2:]))
		h := min8(min8(le.Uint64(hi[x:]), le.Uint64(hi[x+1:])), le.Uint64(hi[x+2:]))
		le.PutUint64(dst[x:], med8(l, m, h))
	}
	for ; x < w; x++ {
		dst[x] = med3(max(lo[x], lo[x+1], lo[x+2]),
			med3(mid[x], mid[x+1], mid[x+2]),
			min(hi[x], hi[x+1], hi[x+2]))
	}
}

func gaussianRow(r0, r1, r2, dst, _ []byte) {
	w := len(dst)
	r0, r1, r2 = r0[:w], r1[:w], r2[:w]
	sum := func(x int) int32 { return int32(r0[x]) + 2*int32(r1[x]) + int32(r2[x]) }
	prev, cur := sum(0), sum(0)
	for x := 0; x < w-1; x++ {
		next := sum(x + 1)
		dst[x] = byte((prev + 2*cur + next + 8) >> 4)
		prev, cur = cur, next
	}
	dst[w-1] = byte((prev + 3*cur + 8) >> 4)
}

func sobelRow(r0, r1, r2, dst, _ []byte) {
	w := len(dst)
	r0, r1, r2 = r0[:w], r1[:w], r2[:w]
	sum := func(x int) int32 { return int32(r0[x]) + 2*int32(r1[x]) + int32(r2[x]) }
	diff := func(x int) int32 { return int32(r2[x]) - int32(r0[x]) }
	sPrev, sCur := sum(0), sum(0)
	dPrev, dCur := diff(0), diff(0)
	for x := 0; x < w-1; x++ {
		sNext, dNext := sum(x+1), diff(x+1)
		dst[x] = sobelMag(sNext-sPrev, dPrev+2*dCur+dNext)
		sPrev, sCur = sCur, sNext
		dPrev, dCur = dCur, dNext
	}
	dst[w-1] = sobelMag(sCur-sPrev, dPrev+3*dCur)
}

// sobelMag returns min(|gx| + |gy|, 255), branch-free.
func sobelMag(gx, gy int32) byte {
	gx = (gx ^ gx>>31) - gx>>31
	gy = (gy ^ gy>>31) - gy>>31
	return byte(min(gx+gy, 255))
}

// Apply runs the named filter's software reference implementation.
func Apply(name string, src *Image) (*Image, error) {
	row, ok := rowKernels[name]
	if !ok {
		return nil, errUnknownFilter(name)
	}
	dst := NewImage(src.W, src.H)
	if src.W == 0 {
		return dst, nil
	}
	scratch := make([]byte, scratchLen(src.W))
	for y := 0; y < src.H; y++ {
		r0, r1, r2 := rowsAround(src, y)
		row(r0, r1, r2, dst.Pix[y*src.W:(y+1)*src.W], scratch)
	}
	return dst, nil
}

type errUnknownFilter string

func (e errUnknownFilter) Error() string { return "accel: unknown filter " + string(e) }
