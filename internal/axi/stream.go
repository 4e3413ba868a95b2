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
// ready/valid back-pressure. Push blocks the producer while the FIFO is
// full; Pop blocks the consumer while it is empty. Throughput pacing
// (one beat per cycle on each side) is the responsibility of the attached
// engines, matching how TVALID/TREADY gate real hardware.
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

// PushBurst enqueues all of beats in FIFO order, blocking while the
// channel is full, and returns only after the final beat is buffered. It
// is semantically identical to pushing each beat in sequence — consumers
// are woken at the same points, back-pressure applies beat-by-beat — but
// costs one kernel handoff per buffer-full instead of four goroutine
// switches per beat. The caller keeps ownership of beats.
func (s *Stream) PushBurst(p *sim.Proc, beats []Beat) {
	for len(beats) > 0 {
		for s.count == s.capacity {
			p.Wait(s.notFull)
		}
		n := s.capacity - s.count
		if n > len(beats) {
			n = len(beats)
		}
		for _, b := range beats[:n] {
			s.buf[(s.head+s.count)%s.capacity] = b
			s.count++
		}
		s.pushed += uint64(n)
		beats = beats[n:]
		s.notEmpty.Fire()
	}
}

// PopBurst dequeues into dst, blocking until at least one beat is
// available, then draining buffered beats without yielding. It stops
// early after a Last beat so a packet boundary is never overrun, and
// never returns more than len(dst) beats. Returns the number of beats
// written.
func (s *Stream) PopBurst(p *sim.Proc, dst []Beat) int {
	if len(dst) == 0 {
		return 0
	}
	for s.count == 0 {
		p.Wait(s.notEmpty)
	}
	n := 0
	for n < len(dst) && s.count > 0 {
		b := s.buf[s.head]
		s.head = (s.head + 1) % s.capacity
		s.count--
		dst[n] = b
		n++
		if b.Last {
			break
		}
	}
	s.popped += uint64(n)
	s.notFull.Fire()
	return n
}

// PushBurstAsync is the continuation-style PushBurst: it deposits the
// burst with beat-identical back-pressure semantics and calls done once
// the final beat is buffered. When the FIFO never fills, done runs
// synchronously (as PushBurst returns without yielding); when it does,
// the retry resumes at the exact event-queue position a process parked
// in Wait(notFull) would have. The caller must not reuse beats until
// done runs.
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

// PopBurstAsync is the continuation-style PopBurst: done(n) receives
// the drained beat count, synchronously when beats are already buffered
// and as a same-cycle wake after notEmpty otherwise — cycle accounting
// identical to a process blocked in PopBurst.
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

// TryPush enqueues a beat if space is available, without blocking.
func (s *Stream) TryPush(b Beat) bool {
	if s.count == s.capacity {
		return false
	}
	s.buf[(s.head+s.count)%s.capacity] = b
	s.count++
	s.pushed++
	s.notEmpty.Fire()
	return true
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

// TryPop dequeues a beat if one is buffered, without blocking.
func (s *Stream) TryPop() (Beat, bool) {
	if s.count == 0 {
		return Beat{}, false
	}
	b := s.buf[s.head]
	s.head = (s.head + 1) % s.capacity
	s.count--
	s.popped++
	s.notFull.Fire()
	return b, true
}

// StreamSink is anything beats can be pushed into: a Stream, the
// StreamSwitch, or an isolator gate. PushBurst is the bulk path device
// engines should prefer (see the burst-accounting lint rule): it moves a
// whole DMA burst or pixel row per kernel handoff while observing the
// same beat-level back-pressure.
type StreamSink interface {
	Push(p *sim.Proc, b Beat)
	PushBurst(p *sim.Proc, beats []Beat)
	// PushBurstAsync is the continuation-style PushBurst used by the
	// state-machine device engines: same back-pressure, done called
	// when the final beat is buffered.
	PushBurstAsync(beats []Beat, done func())
}

// StreamSource is anything beats can be popped from. PopBurst drains up
// to len(dst) buffered beats per handoff, stopping after TLAST.
type StreamSource interface {
	Pop(p *sim.Proc) Beat
	PopBurst(p *sim.Proc, dst []Beat) int
	// PopBurstAsync is the continuation-style PopBurst: done(n)
	// receives the drained count once at least one beat is available.
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
	outs map[SwitchPort]StreamSink
	sel  SwitchPort
}

// NewStreamSwitch returns a switch with the given output ports, initially
// selecting PortRM (acceleration mode, the reset default).
func NewStreamSwitch(name string, icap, rm StreamSink) *StreamSwitch {
	return &StreamSwitch{
		name: name,
		outs: map[SwitchPort]StreamSink{PortICAP: icap, PortRM: rm},
		sel:  PortRM,
	}
}

// Select steers subsequent beats to port.
func (sw *StreamSwitch) Select(port SwitchPort) {
	if _, ok := sw.outs[port]; !ok {
		panic(fmt.Sprintf("axi: %s: no output on port %v", sw.name, port))
	}
	sw.sel = port
}

// Selected returns the currently selected port.
func (sw *StreamSwitch) Selected() SwitchPort { return sw.sel }

// Push forwards the beat to the selected output.
func (sw *StreamSwitch) Push(p *sim.Proc, b Beat) {
	sw.outs[sw.sel].Push(p, b)
}

// PushBurst forwards the whole burst to the selected output.
func (sw *StreamSwitch) PushBurst(p *sim.Proc, beats []Beat) {
	sw.outs[sw.sel].PushBurst(p, beats)
}

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

// Push forwards or swallows the beat depending on the gate state.
func (g *StreamIsolator) Push(p *sim.Proc, b Beat) {
	if g.decoupled {
		g.dropped++
		return
	}
	g.Next.Push(p, b)
}

// PushBurst forwards or swallows the whole burst depending on the gate
// state. The gate cannot change mid-burst: decoupling is a register
// write, and register writes never interleave with a burst in flight.
func (g *StreamIsolator) PushBurst(p *sim.Proc, beats []Beat) {
	if g.decoupled {
		g.dropped += uint64(len(beats))
		return
	}
	g.Next.PushBurst(p, beats)
}

// PushBurstAsync forwards or swallows the whole burst depending on the
// gate state; a swallowed burst completes immediately, as the blocking
// path returns without yielding.
func (g *StreamIsolator) PushBurstAsync(beats []Beat, done func()) {
	if g.decoupled {
		g.dropped += uint64(len(beats))
		done()
		return
	}
	g.Next.PushBurstAsync(beats, done)
}

var _ StreamSink = (*StreamIsolator)(nil)
