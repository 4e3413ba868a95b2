// Package burst exercises the burst-accounting rule: per-beat Push
// loops in device engines must be flagged, burst handoff and
// out-of-loop pushes must not.
package burst

import (
	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

// perBeatRange pushes beat-by-beat from a range loop: flagged.
func perBeatRange(p *sim.Proc, s *axi.Stream, beats []axi.Beat) {
	for _, b := range beats {
		s.Push(p, b) // want "burst-accounting"
	}
}

// perBeatFor pushes beat-by-beat from a counted loop, indexing the
// burst: flagged.
func perBeatFor(p *sim.Proc, s *axi.Stream, beats []axi.Beat) {
	for i := 0; i < len(beats); i++ {
		s.Push(p, beats[i]) // want "burst-accounting"
	}
}

// nested is flagged once even though two loops enclose the call.
func nested(p *sim.Proc, s *axi.Stream, rows [][]axi.Beat) {
	for _, row := range rows {
		for _, b := range row {
			s.Push(p, b) // want "burst-accounting"
		}
	}
}

// burstHandoff is the sanctioned bulk path, here through the sink
// interface: not flagged.
func burstHandoff(sink axi.StreamSink, rows [][]axi.Beat, done func()) {
	for _, row := range rows {
		sink.PushBurstAsync(row, done)
	}
}

// single pushes once outside any loop: not flagged.
func single(p *sim.Proc, s *axi.Stream, b axi.Beat) {
	s.Push(p, b)
}

// deferredWork queues a closure from inside a loop; the Push runs on
// the closure's own schedule, not per loop iteration: not flagged.
func deferredWork(k *sim.Kernel, p *sim.Proc, s *axi.Stream, beats []axi.Beat) {
	for _, b := range beats {
		b := b
		k.Schedule(0, func() { s.Push(p, b) })
	}
}

// suppressed documents a deliberate per-beat loop.
func suppressed(p *sim.Proc, s *axi.Stream, beats []axi.Beat) {
	for _, b := range beats {
		//lint:ignore burst-accounting exercising the single-beat path on purpose
		s.Push(p, b)
	}
}
