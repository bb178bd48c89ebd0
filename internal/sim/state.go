package sim

// Checkpoint state capture for the engine (internal/ckpt).
//
// The engine is only capturable at quiescent points: every queued event
// executed. At such a point the entire engine state reduces to the clock
// and counters — the event queue is empty by definition, so "capturing
// the queue" is the precondition, not a serialization problem. The XMT
// machine reaches quiescence at every spawn boundary (Machine.Spawn runs
// its section to completion before returning), which is where
// checkpoints are taken; closure events and in-flight thread programs
// therefore never need to cross a checkpoint. See DESIGN.md §12.

import "fmt"

// PortState is the serializable state of a Port (Width is configuration,
// rebuilt from config.Config on restore, not state).
type PortState struct {
	NextFree uint64
	Used     uint64
	Busy     uint64
}

// State captures the port's occupancy state.
func (p *Port) State() PortState {
	return PortState{NextFree: p.nextFree, Used: p.used, Busy: p.Busy}
}

// RestoreState restores occupancy state captured by State.
func (p *Port) RestoreState(s PortState) {
	p.nextFree, p.used, p.Busy = s.NextFree, s.Used, s.Busy
}

// EngineState is the serializable state of a quiescent Engine.
type EngineState struct {
	Now       uint64
	Seq       uint64
	Processed uint64
}

// CaptureState captures the engine's state. The engine must be
// quiescent: pending events cannot be serialized (they may hold
// closures), and the machine model guarantees none exist at spawn
// boundaries.
func (e *Engine) CaptureState() (EngineState, error) {
	if n := e.q.count; n != 0 {
		return EngineState{}, fmt.Errorf("sim: capture with %d pending events (engine not at a quiescent point)", n)
	}
	return EngineState{Now: e.now, Seq: e.seq, Processed: e.Processed}, nil
}

// RestoreState restores a captured state onto a fresh (or quiescent)
// engine, so that subsequent scheduling and execution continue exactly
// where the captured run left off.
func (e *Engine) RestoreState(s EngineState) error {
	if n := e.q.count; n != 0 {
		return fmt.Errorf("sim: restore with %d pending events (engine not at a quiescent point)", n)
	}
	e.now, e.seq, e.Processed = s.Now, s.Seq, s.Processed
	e.telFlushed = s.Processed
	// Start the ring at the restored clock so future events land in the
	// right buckets.
	e.q.rebase(s.Now)
	return nil
}
