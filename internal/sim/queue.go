package sim

import "math/bits"

// The calendar queue.
//
// Nearly all traffic in this simulator is Schedule(0) (same-cycle
// handoffs, signal wakes) and small sleeps (stream pacing, bus
// latencies). A binary heap pays O(log n) plus a heap-allocated,
// interface-boxed element for every one of those; the calendar ring
// pays a single slice append into the bucket of the target cycle and
// nothing else. Buckets keep their backing arrays across reuse, so the
// steady-state hot path allocates zero bytes per event.
//
// The ring covers the next ringSize cycles [base, base+ringSize).
// Events beyond the window go to `far`, a value-typed min-heap ordered
// by (at, seq) — no heap.Interface, no interface conversions. Whenever
// the window advances, far events that fall inside the new window
// migrate into their buckets; because migration happens the moment a
// cycle becomes coverable, and pops the heap in (at, seq) order, every
// bucket's append order equals global scheduling order and same-cycle
// FIFO semantics are preserved exactly.
//
// An occupancy bitmap (one bit per bucket) lets the kernel jump
// straight to the next non-empty cycle instead of walking empty
// buckets, so sparse regions cost O(ringSize/64) words, not O(gap).

// ringSize is the calendar window in cycles. It comfortably covers the
// pipeline fill latencies (~160 cycles) and every stream/bus delay in
// the models; longer sleeps take the far-heap path once and migrate
// back. Must be a power of two and a multiple of 64.
const (
	ringSize = 256
	ringMask = ringSize - 1
)

// entry is one scheduled unit of work: either a plain callback or a
// process wake. Process wakes are the dominant species (Sleep, Signal
// fires, Resource grants), and representing them as a *Proc instead of
// a fresh closure is what makes the hot loop allocation-free.
type entry struct {
	fn   func()
	proc *Proc
}

// run executes the entry at the kernel's current cycle.
func (e entry) run(k *Kernel) {
	if e.proc != nil {
		k.dispatch(e.proc)
		return
	}
	e.fn()
}

// farEvent is a beyond-window event held in the value min-heap.
type farEvent struct {
	at  Time
	seq uint64
	e   entry
}

// bucketPut appends e to the bucket of cycle t (which must lie inside
// the current window) and marks the bucket occupied.
func (k *Kernel) bucketPut(t Time, e entry) {
	i := t & ringMask
	k.ring[i] = append(k.ring[i], e)
	k.occ[i>>6] |= 1 << (i & 63)
	k.ringN++
}

// setBase advances the window start to b and migrates every far event
// the new window covers into its bucket, preserving (at, seq) order.
//
// The heap pops in (at, seq) order, so consecutive pops with the same
// cycle form a ready-sorted run; each run lands in its bucket as one
// batched append with a single occupancy-bitmap update, instead of a
// full bucketPut per event. The far heap's backing array shrinks in
// place and keeps its capacity, so migration storms recycle the same
// arena instead of reallocating it.
func (k *Kernel) setBase(b Time) {
	k.base = b
	horizon := b + ringSize
	for len(k.far) > 0 && k.far[0].at < horizon {
		at := k.far[0].at
		i := at & ringMask
		bucket := k.ring[i]
		for len(k.far) > 0 && k.far[0].at == at {
			bucket = append(bucket, k.farPop().e)
			k.ringN++
		}
		k.ring[i] = bucket
		k.occ[i>>6] |= 1 << (i & 63)
	}
}

// nextOccupied returns the earliest cycle >= from whose bucket holds
// events. Callers guarantee at least one bucket in [from, from+ringSize)
// is occupied.
func (k *Kernel) nextOccupied(from Time) Time {
	for off := Time(0); off < ringSize; {
		i := (from + off) & ringMask
		if w := k.occ[i>>6] >> (i & 63); w != 0 {
			return from + off + Time(bits.TrailingZeros64(w))
		}
		off += Time(64 - i&63)
	}
	panic("sim: calendar occupancy bitmap inconsistent")
}

// position advances the window until ring[base&ringMask][pos] is the
// earliest pending event, reporting whether that event exists and fires
// no later than limit. It never moves base past limit, so a capped
// search (RunUntil) leaves the window ready for schedules at the
// resulting current time.
func (k *Kernel) position(limit Time) bool {
	for {
		b := &k.ring[k.base&ringMask]
		if k.pos < len(*b) {
			if k.pos >= 64 && k.pos >= len(*b)-k.pos {
				k.compact(b)
			}
			return k.base <= limit
		}
		k.recycle()
		if k.ringN > 0 {
			next := k.nextOccupied(k.base + 1)
			if next > limit {
				if limit > k.base {
					k.setBase(limit)
				}
				return false
			}
			k.setBase(next)
			continue
		}
		if len(k.far) > 0 {
			t := k.far[0].at
			if t > limit {
				if limit > k.base {
					k.setBase(limit)
				}
				return false
			}
			k.setBase(t)
			continue
		}
		return false
	}
}

// compact drops the fired prefix b[:pos] of the current bucket. A
// same-cycle cascade (events scheduling more events for the current
// cycle) appends to the bucket being drained, so it never fully
// empties; callers compact once the dead prefix dominates
// (pos >= 64 && pos >= len-pos), which keeps memory bounded and appends
// inside the warm backing array at amortized O(1) per event.
func (k *Kernel) compact(b *[]entry) {
	n := copy(*b, (*b)[k.pos:])
	clear((*b)[n:])
	*b = (*b)[:n]
	k.pos = 0
}

// drain runs every entry of the current cycle's bucket — including
// same-cycle cascade appends — in one pass, advancing time once and
// re-checking nothing but the bucket length per event. position() pays
// the window bookkeeping per *cycle*; drain() makes each event inside
// the cycle cost a slice index, a counter, and the dispatch. The
// dead-prefix check (see compact) is folded into the loop so a long
// cascade (events perpetually appending to the bucket being drained)
// stays in bounded memory, exactly as position() would have kept it.
// Returns when the bucket is exhausted or Halt was called mid-cascade.
//
// Callers must have established via position() that ring[base&ringMask]
// holds the earliest pending event.
//
// A process dispatched here may move base forward in place (see
// advance), after which b is no longer the current bucket: a later
// slow-path sleep can land in b's slot one window on, and walking b
// would fire it at the wrong cycle. So drain returns as soon as base
// moves and lets position() re-derive the bucket.
func (k *Kernel) drain() {
	base := k.base
	b := &k.ring[base&ringMask]
	k.now = base
	for k.pos < len(*b) && !k.halt && k.base == base {
		if k.pos >= 64 && k.pos >= len(*b)-k.pos {
			k.compact(b)
		}
		e := (*b)[k.pos]
		(*b)[k.pos] = entry{} // drop references so recycled slots don't pin closures
		k.pos++
		k.ringN--
		k.fired++
		e.run(k)
	}
}

// advance is Proc.Sleep's in-place path: it moves simulated time to
// now+d without queueing a wake or yielding, and reports whether it
// did. It applies only when the slow path — push the wake, yield, let
// the Run loop position to it and dispatch it — would provably fire
// that wake next: a Run/RunUntil loop is active and now+d lies within
// its horizon, Halt has not been called, the current bucket holds no
// unfired entry, and no ring bucket or far event is due at or before
// now+d. It then does exactly the bookkeeping position() and drain()
// would have done for the wake: recycle the consumed bucket, setBase
// (migrating far events), set now and count the fired event.
//
//lint:hot
func (k *Kernel) advance(d Time) bool {
	t := k.now + d
	if !k.running || k.halt || t > k.limit {
		return false
	}
	if k.pos < len(k.ring[k.base&ringMask]) {
		return false
	}
	// Every pending ring entry sits in a later bucket (the current one is
	// consumed), so none is due at t when d is zero.
	if d > 0 && k.ringN > 0 && k.nextOccupied(k.base+1) <= t {
		return false
	}
	if len(k.far) > 0 && k.far[0].at <= t {
		return false
	}
	k.recycle()
	k.setBase(t)
	k.now = t
	k.fired++
	return true
}

// recycle empties the fully consumed current bucket, keeping its
// backing array, and clears its occupancy bit.
func (k *Kernel) recycle() {
	b := &k.ring[k.base&ringMask]
	if len(*b) > 0 {
		*b = (*b)[:0]
		i := k.base & ringMask
		k.occ[i>>6] &^= 1 << (i & 63)
	}
	k.pos = 0
}

// fire runs the event position() selected, advancing current time to
// its cycle.
func (k *Kernel) fire() {
	b := &k.ring[k.base&ringMask]
	e := (*b)[k.pos]
	(*b)[k.pos] = entry{} // drop references so recycled slots don't pin closures
	k.pos++
	k.ringN--
	k.now = k.base
	k.fired++
	e.run(k)
}

// farPush inserts fe into the value min-heap (sift-up inlined; no
// interface boxing, no per-event allocation beyond amortized growth).
func (k *Kernel) farPush(fe farEvent) {
	h := append(k.far, fe)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !farLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.far = h
}

// farPop removes and returns the heap minimum (sift-down inlined).
func (k *Kernel) farPop() farEvent {
	h := k.far
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = farEvent{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && farLess(h[r], h[l]) {
			c = r
		}
		if !farLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.far = h
	return min
}

func farLess(a, b farEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
