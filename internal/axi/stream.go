package axi

import (
	"fmt"

	"rvcap/internal/sim"
)

// Beat is one 64-bit AXI-Stream transfer. Keep marks the valid byte lanes
// (bit i = byte i valid); Last flags the end of a packet (TLAST).
type Beat struct {
	Data uint64
	Keep uint8
	Last bool
}

// FullKeep marks all eight byte lanes valid.
const FullKeep uint8 = 0xFF

// Stream is a point-to-point AXI-Stream channel: a bounded FIFO with
// ready/valid back-pressure. A producer stalls while the FIFO is full
// and a consumer while it is empty, whether it is a process calling
// Push/Pop one beat at a time or a device engine moving whole bursts
// with PushBurstAsync/PopBurstAsync. Throughput pacing (one beat per
// cycle on each side) is the responsibility of the attached engines,
// matching how TVALID/TREADY gate real hardware.
type Stream struct {
	k        *sim.Kernel
	name     string
	capacity int
	buf      []Beat
	head     int
	count    int
	notEmpty *sim.Signal
	notFull  *sim.Signal
	pushed   uint64
	popped   uint64

	// Blocked-burst pending slots. The SoC's channels are single
	// producer / single consumer, so at most one push and one pop park
	// at a time: their arguments go into these slots and the resume
	// closures (bound once in NewStream) are re-armed on the signal,
	// so the steady-state blocked path allocates nothing. A second
	// concurrent parker (none exists today) falls back to an allocated
	// capture, keeping the semantics general.
	pendPushBeats []Beat
	pendPushDone  func()
	pushResume    func()
	pendPopDst    []Beat
	pendPopDone   func(n int)
	popResume     func()
}

// NewStream returns a stream whose internal FIFO holds capacity beats
// (the skid/packet buffers of the stream infrastructure).
func NewStream(k *sim.Kernel, name string, capacity int) *Stream {
	if capacity <= 0 {
		panic("axi: stream capacity must be positive: " + name)
	}
	s := &Stream{
		k:        k,
		name:     name,
		capacity: capacity,
		buf:      make([]Beat, capacity),
		notEmpty: sim.NewSignal(k, name+".notEmpty"),
		notFull:  sim.NewSignal(k, name+".notFull"),
	}
	s.pushResume = func() {
		beats, done := s.pendPushBeats, s.pendPushDone
		s.pendPushBeats, s.pendPushDone = nil, nil
		s.PushBurstAsync(beats, done)
	}
	s.popResume = func() {
		dst, done := s.pendPopDst, s.pendPopDone
		s.pendPopDst, s.pendPopDone = nil, nil
		s.PopBurstAsync(dst, done)
	}
	return s
}

// Name returns the channel name.
func (s *Stream) Name() string { return s.name }

// Len returns the number of buffered beats.
func (s *Stream) Len() int { return s.count }

// Cap returns the FIFO capacity in beats.
func (s *Stream) Cap() int { return s.capacity }

// Pushed returns the total number of beats ever accepted.
func (s *Stream) Pushed() uint64 { return s.pushed }

// Popped returns the total number of beats ever consumed.
func (s *Stream) Popped() uint64 { return s.popped }

// Push enqueues a beat, blocking while the FIFO is full (TREADY low).
func (s *Stream) Push(p *sim.Proc, b Beat) {
	for s.count == s.capacity {
		p.Wait(s.notFull)
	}
	s.buf[(s.head+s.count)%s.capacity] = b
	s.count++
	s.pushed++
	s.notEmpty.Fire()
}

// PushBurstAsync enqueues all of beats in FIFO order and calls done once
// the final beat is buffered. It is beat-for-beat identical to a process
// calling Push on each beat in turn: consumers are woken at the same
// points and back-pressure applies beat by beat, but a whole burst costs
// one handoff per buffer-full instead of one per beat. When the FIFO
// never fills, done runs synchronously; when it does, the retry resumes
// at the exact event-queue position a process parked in Wait(notFull)
// would have. The caller must not reuse beats until done runs.
func (s *Stream) PushBurstAsync(beats []Beat, done func()) {
	for len(beats) > 0 {
		if s.count == s.capacity {
			s.pushRetry(beats, done)
			return
		}
		n := min(s.capacity-s.count, len(beats))
		// The free region starts at the tail and wraps at most once:
		// copy it as two contiguous segments.
		tail := s.head + s.count
		if tail >= s.capacity {
			tail -= s.capacity
		}
		k := copy(s.buf[tail:], beats[:n])
		copy(s.buf, beats[k:n])
		s.count += n
		s.pushed += uint64(n)
		beats = beats[n:]
		s.notEmpty.Fire()
	}
	done()
}

// PopBurstAsync dequeues into dst and calls done(n) with the number of
// beats written. Once at least one beat is buffered it drains without
// yielding, stops early after a Last beat so a packet boundary is never
// overrun, and never writes more than len(dst) beats. done runs
// synchronously when beats are already buffered and as a same-cycle
// wake after notEmpty otherwise, exactly where a process blocked in Pop
// would have resumed.
func (s *Stream) PopBurstAsync(dst []Beat, done func(n int)) {
	if len(dst) == 0 {
		done(0)
		return
	}
	if s.count == 0 {
		s.popRetry(dst, done)
		return
	}
	n := 0
	for n < len(dst) && s.count > 0 {
		b := s.buf[s.head]
		if s.head++; s.head == s.capacity {
			s.head = 0
		}
		s.count--
		dst[n] = b
		n++
		if b.Last {
			break
		}
	}
	s.popped += uint64(n)
	s.notFull.Fire()
	done(n)
}

// pushRetry and popRetry park the blocked-path continuations. The
// arguments go into the stream's pending slot and the pre-bound resume
// closure is re-armed on the signal — zero allocations per blocked
// burst. Keeping them out of the hot functions also lets the fast path
// keep its arguments on the stack.
func (s *Stream) pushRetry(beats []Beat, done func()) {
	if s.pendPushDone == nil {
		s.pendPushBeats, s.pendPushDone = beats, done
		s.notFull.OnFire(s.pushResume)
		return
	}
	s.notFull.OnFire(func() { s.PushBurstAsync(beats, done) })
}

func (s *Stream) popRetry(dst []Beat, done func(n int)) {
	if s.pendPopDone == nil {
		s.pendPopDst, s.pendPopDone = dst, done
		s.notEmpty.OnFire(s.popResume)
		return
	}
	s.notEmpty.OnFire(func() { s.PopBurstAsync(dst, done) })
}

// Pop dequeues a beat, blocking while the FIFO is empty (TVALID low).
func (s *Stream) Pop(p *sim.Proc) Beat {
	for s.count == 0 {
		p.Wait(s.notEmpty)
	}
	b := s.buf[s.head]
	s.head = (s.head + 1) % s.capacity
	s.count--
	s.popped++
	s.notFull.Fire()
	return b
}

// StreamSink is anything beats can be pushed into: a Stream, the
// StreamSwitch, or an isolator gate. Device engines move whole DMA
// bursts or pixel rows per call (see the burst-accounting lint rule).
type StreamSink interface {
	PushBurstAsync(beats []Beat, done func())
}

// StreamSource is anything beats can be popped from.
type StreamSource interface {
	PopBurstAsync(dst []Beat, done func(n int))
}

var (
	_ StreamSink   = (*Stream)(nil)
	_ StreamSource = (*Stream)(nil)
)

// SwitchPort selects the active output of the AXI-Stream switch.
type SwitchPort int

// The RV-CAP stream switch has two targets (paper Fig. 2): the ICAP
// converter (reconfiguration mode) and the reconfigurable module
// (acceleration mode).
const (
	PortICAP SwitchPort = iota
	PortRM
)

func (sp SwitchPort) String() string {
	switch sp {
	case PortICAP:
		return "ICAP"
	case PortRM:
		return "RM"
	}
	return fmt.Sprintf("SwitchPort(%d)", int(sp))
}

// StreamSwitch routes the DMA's MM2S stream to either the AXIS2ICAP
// converter or the reconfigurable module, selected by the select_ICAP
// register bit (paper §III-B item 4). Switching while beats are buffered
// in the downstream channel is a software protocol violation the hardware
// does not protect against; the model exposes it via the Busy check.
type StreamSwitch struct {
	name string
	outs [2]StreamSink // indexed by SwitchPort
	sel  SwitchPort
}

// NewStreamSwitch returns a switch with the given output ports, initially
// selecting PortRM (acceleration mode, the reset default).
func NewStreamSwitch(name string, icap, rm StreamSink) *StreamSwitch {
	return &StreamSwitch{
		name: name,
		outs: [2]StreamSink{PortICAP: icap, PortRM: rm},
		sel:  PortRM,
	}
}

// Select steers subsequent beats to port.
func (sw *StreamSwitch) Select(port SwitchPort) {
	if port < 0 || int(port) >= len(sw.outs) {
		panic(fmt.Sprintf("axi: %s: no output on port %v", sw.name, port))
	}
	sw.sel = port
}

// Selected returns the currently selected port.
func (sw *StreamSwitch) Selected() SwitchPort { return sw.sel }

// PushBurstAsync forwards the whole burst to the selected output.
func (sw *StreamSwitch) PushBurstAsync(beats []Beat, done func()) {
	sw.outs[sw.sel].PushBurstAsync(beats, done)
}

var _ StreamSink = (*StreamSwitch)(nil)

// StreamIsolator is the AXI-Stream side of a PR decoupler: while
// decoupled, beats pushed toward the reconfigurable partition are
// swallowed (the partition's logic is in an undefined state during
// reconfiguration and must not see transactions; paper §III-A inserts
// "AXI isolator components ... between the RPs and the main AXI-4 bus").
type StreamIsolator struct {
	Next      StreamSink
	decoupled bool
	dropped   uint64
}

// NewStreamIsolator returns a coupled (pass-through) isolator.
func NewStreamIsolator(next StreamSink) *StreamIsolator {
	return &StreamIsolator{Next: next}
}

// SetDecoupled opens (true) or closes (false) the isolation gate.
func (g *StreamIsolator) SetDecoupled(d bool) { g.decoupled = d }

// Decoupled reports the gate state.
func (g *StreamIsolator) Decoupled() bool { return g.decoupled }

// Dropped returns how many beats were swallowed while decoupled.
func (g *StreamIsolator) Dropped() uint64 { return g.dropped }

// PushBurstAsync forwards or swallows the whole burst depending on the
// gate state; a swallowed burst completes synchronously. The gate cannot
// change mid-burst: decoupling is a register write, and register writes
// never interleave with a burst in flight.
func (g *StreamIsolator) PushBurstAsync(beats []Beat, done func()) {
	if g.decoupled {
		g.dropped += uint64(len(beats))
		done()
		return
	}
	g.Next.PushBurstAsync(beats, done)
}

var _ StreamSink = (*StreamIsolator)(nil)
