// Package sim provides the discrete-event simulation kernel that every
// hardware model in this repository runs on.
//
// Time is counted in clock cycles of the single 100 MHz clock domain the
// paper uses ("operates with a single clock source in a fully synchronized
// design", §III-B). The kernel is strictly deterministic: events scheduled
// for the same cycle fire in scheduling order.
//
// Two styles of model coexist:
//
//   - callback models register events with Schedule/At, and
//   - process models (see Proc) run as cooperative goroutines with strict
//     one-at-a-time handoff, which lets device engines and the software
//     drivers be written as ordinary sequential code.
//
// The event queue is two-tiered (see queue.go): a calendar ring of
// per-cycle FIFO buckets absorbs the dominant near-future traffic in
// O(1) with no per-event allocation, backed by a value-typed min-heap
// for far-future events. The pre-calendar container/heap implementation
// is retained for one release behind WithQueue(LegacyHeap) so the
// cycle-equivalence suite can prove the two produce byte-identical
// results.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in simulated time, measured in clock cycles.
type Time uint64

// Forever is a schedule horizon beyond any realistic simulation length.
const Forever Time = 1<<63 - 1

// QueueKind selects the kernel's event-queue implementation.
type QueueKind int

const (
	// CalendarQueue is the default: a bucket ring over the next
	// ringSize cycles plus a value-typed min-heap for far events.
	CalendarQueue QueueKind = iota
	// LegacyHeap is the pre-calendar container/heap of boxed *event
	// pointers, kept for one release as the cycle-equivalence
	// reference.
	LegacyHeap
)

// DefaultQueue is the queue implementation NewKernel uses when no
// WithQueue option is given. The cycle-equivalence suite flips it to
// LegacyHeap to rerun whole experiments on the reference queue without
// plumbing an option through every construction site; everything else
// should leave it alone.
var DefaultQueue = CalendarQueue

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithQueue selects the event-queue implementation explicitly.
func WithQueue(q QueueKind) Option {
	return func(k *Kernel) { k.legacy = q == LegacyHeap }
}

// event is a legacy-heap element: a scheduled entry boxed with its
// timestamp. seq breaks ties between events scheduled for the same
// cycle, preserving FIFO order.
type event struct {
	at  Time
	seq uint64
	e   entry
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is a discrete-event scheduler. The zero value is not ready to
// use; construct with NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	halt  bool
	fired uint64

	// running is set while a calendar Run/RunUntil loop is active and
	// limit is that loop's horizon: the window in which Proc.Sleep may
	// advance time in place (see Kernel.advance).
	running bool
	limit   Time

	// Legacy queue (WithQueue(LegacyHeap)).
	legacy bool
	pq     eventHeap

	// Calendar queue: see queue.go.
	ring  [ringSize][]entry
	occ   [ringSize / 64]uint64
	base  Time // earliest cycle the ring window covers
	pos   int  // next unfired entry in ring[base&ringMask]
	ringN int  // pending entries across all buckets
	far   []farEvent
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{legacy: DefaultQueue == LegacyHeap}
	for _, o := range opts {
		o(k)
	}
	if k.legacy {
		heap.Init(&k.pq)
	}
	return k
}

// Queue reports which event-queue implementation the kernel runs on.
func (k *Kernel) Queue() QueueKind {
	if k.legacy {
		return LegacyHeap
	}
	return CalendarQueue
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Time { return k.now }

// Schedule arranges for fn to run delay cycles from now. A zero delay
// runs fn later in the current cycle, after already-pending same-cycle
// events.
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.push(k.now+delay, entry{fn: fn})
}

// At arranges for fn to run at absolute cycle t. Scheduling in the past
// panics: it is always a model bug.
func (k *Kernel) At(t Time, fn func()) {
	k.push(t, entry{fn: fn})
}

// push enqueues e at absolute cycle t on whichever queue is active.
func (k *Kernel) push(t Time, e entry) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at cycle %d before now (%d)", t, k.now))
	}
	if k.legacy {
		k.seq++
		heap.Push(&k.pq, &event{at: t, seq: k.seq, e: e})
		return
	}
	if t < k.base+ringSize {
		k.bucketPut(t, e)
		return
	}
	k.seq++
	k.farPush(farEvent{at: t, seq: k.seq, e: e})
}

// Step runs the single earliest pending event. It reports false when the
// event queue is empty.
func (k *Kernel) Step() bool {
	if k.legacy {
		if len(k.pq) == 0 {
			return false
		}
		e := heap.Pop(&k.pq).(*event)
		k.now = e.at
		k.fired++
		e.e.run(k)
		return true
	}
	// A Step nested inside a Run event ends that loop's in-place
	// window: the slow path is always exact.
	k.running = false
	if !k.position(Forever) {
		return false
	}
	k.fire()
	return true
}

// Halt makes Run and RunUntil return after the current event completes.
func (k *Kernel) Halt() { k.halt = true }

// Run executes events until the queue drains or Halt is called. On the
// calendar queue the loop positions the window once per occupied cycle
// and drains that cycle's whole bucket (cascade appends included) in a
// single batched pass, and a process that sleeps with nothing else due
// moves time forward in place (see Proc.Sleep).
func (k *Kernel) Run() {
	k.halt = false
	if k.legacy {
		for !k.halt && k.Step() {
		}
		return
	}
	k.running, k.limit = true, Forever
	for !k.halt && k.position(Forever) {
		k.drain()
	}
	k.running = false
}

// RunUntil executes events with timestamps <= t, then sets the current
// time to t (even if no event lands exactly there).
func (k *Kernel) RunUntil(t Time) {
	k.halt = false
	if k.legacy {
		for !k.halt && len(k.pq) > 0 && k.pq[0].at <= t {
			k.Step()
		}
	} else {
		k.running, k.limit = true, t
		for !k.halt && k.position(t) {
			k.drain()
		}
		k.running = false
	}
	if !k.halt && k.now < t {
		k.now = t
	}
}

// Events reports the total number of events fired since construction —
// the denominator for events/sec and ns/event throughput metrics.
func (k *Kernel) Events() uint64 { return k.fired }

// Pending reports the number of scheduled events.
func (k *Kernel) Pending() int {
	if k.legacy {
		return len(k.pq)
	}
	return k.ringN + len(k.far)
}
