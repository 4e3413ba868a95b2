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
// for far-future events.
package sim

import "fmt"

// Time is a point in simulated time, measured in clock cycles.
type Time uint64

// Forever is a schedule horizon beyond any realistic simulation length.
const Forever Time = 1<<63 - 1

// Kernel is a discrete-event scheduler. Construct with NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	halt  bool
	fired uint64

	// running is set while a Run/RunUntil loop is active and
	// limit is that loop's horizon: the window in which Proc.Sleep may
	// advance time in place (see Kernel.advance).
	running bool
	limit   Time

	// Calendar queue: see queue.go.
	ring  [ringSize][]entry
	occ   [ringSize / 64]uint64
	base  Time // earliest cycle the ring window covers
	pos   int  // next unfired entry in ring[base&ringMask]
	ringN int  // pending entries across all buckets
	far   []farEvent
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

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

// push enqueues e at absolute cycle t: into its ring bucket when the
// window covers t, onto the far heap otherwise.
func (k *Kernel) push(t Time, e entry) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at cycle %d before now (%d)", t, k.now))
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

// Run executes events until the queue drains or Halt is called. The
// loop positions the window once per occupied cycle and drains that
// cycle's whole bucket (cascade appends included) in a single batched
// pass, and a process that sleeps with nothing else due moves time
// forward in place (see Proc.Sleep).
func (k *Kernel) Run() {
	k.halt = false
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
	k.running, k.limit = true, t
	for !k.halt && k.position(t) {
		k.drain()
	}
	k.running = false
	if !k.halt && k.now < t {
		k.now = t
	}
}

// Events reports the total number of events fired since construction —
// the denominator for events/sec and ns/event throughput metrics.
func (k *Kernel) Events() uint64 { return k.fired }

// Pending reports the number of scheduled events.
func (k *Kernel) Pending() int {
	return k.ringN + len(k.far)
}
