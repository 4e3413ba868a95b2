// Package axi is a miniature stand-in for the real AXI-Stream channel:
// just enough surface for the burst-accounting golden files. The Push
// loop inside PushBurstAsync below is the implementation the rule's
// internal/axi carve-out must NOT flag.
package axi

import "rvcap/internal/sim"

// Beat is one 64-bit stream transfer.
type Beat struct {
	Data uint64
	Last bool
}

// Stream is a bounded beat FIFO.
type Stream struct{ buf []Beat }

// Push enqueues one beat.
func (s *Stream) Push(p *sim.Proc, b Beat) { s.buf = append(s.buf, b) }

// PushBurstAsync enqueues a whole burst in one handoff and calls done.
func (s *Stream) PushBurstAsync(beats []Beat, done func()) {
	for _, b := range beats {
		s.Push(nil, b)
	}
	done()
}

// Pop dequeues one beat.
func (s *Stream) Pop(p *sim.Proc) Beat {
	b := s.buf[0]
	s.buf = s.buf[1:]
	return b
}

// PopBurstAsync dequeues up to len(dst) beats and calls done with the
// count.
func (s *Stream) PopBurstAsync(dst []Beat, done func(n int)) {
	n := copy(dst, s.buf)
	s.buf = s.buf[n:]
	done(n)
}

// StreamSink is anything beats can be pushed into.
type StreamSink interface {
	PushBurstAsync(beats []Beat, done func())
}
