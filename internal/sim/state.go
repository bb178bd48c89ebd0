package sim

// Checkpoint state capture for both engines (internal/ckpt).
//
// Engines are only capturable at quiescent points: every queued event
// executed, every shard parked, every outbox drained. At such a point
// the entire engine state reduces to clocks and counters — the event
// queues are empty by definition, so "capturing the queues" is the
// precondition, not a serialization problem. The XMT machine reaches
// quiescence at every spawn boundary (Machine.Spawn runs its section to
// completion before returning), which is where checkpoints are taken;
// closure events and in-flight thread programs therefore never need to
// cross a checkpoint. See DESIGN.md §12.

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

// EngineState is the serializable state of a quiescent serial Engine.
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

// ShardState is the serializable state of one quiescent shard.
type ShardState struct {
	Now       uint64
	Processed uint64
}

// ParallelEngineState is the serializable state of a quiescent
// ParallelEngine. Per-shard state is independent of the worker count
// (workers change wall-clock scheduling only), so a state captured at
// one -sim-workers value restores onto an engine running any other.
type ParallelEngineState struct {
	Now      uint64
	Windows  uint64
	Barriers uint64
	Messages uint64
	Shards   []ShardState
}

// CaptureState captures the engine's state. Every shard must be parked
// with an empty queue and outbox — true between Run calls.
func (e *ParallelEngine) CaptureState() (ParallelEngineState, error) {
	if n := e.Pending(); n != 0 {
		return ParallelEngineState{}, fmt.Errorf("sim: capture with %d pending shard events (engine not at a quiescent point)", n)
	}
	st := ParallelEngineState{Now: e.now, Windows: e.Windows,
		Barriers: e.Barriers, Messages: e.Messages,
		Shards: make([]ShardState, len(e.shards))}
	for i := range e.shards {
		sh := &e.shards[i]
		if len(sh.out) != 0 {
			return ParallelEngineState{}, fmt.Errorf("sim: capture with %d undelivered messages on shard %d", len(sh.out), i)
		}
		st.Shards[i] = ShardState{Now: sh.now, Processed: sh.Processed}
	}
	return st, nil
}

// RestoreState restores a captured state onto a fresh (or quiescent)
// engine with the same shard count.
func (e *ParallelEngine) RestoreState(s ParallelEngineState) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("sim: restore with %d pending shard events (engine not at a quiescent point)", n)
	}
	if len(s.Shards) != len(e.shards) {
		return fmt.Errorf("sim: restore with %d shard states onto %d shards", len(s.Shards), len(e.shards))
	}
	e.now, e.Windows, e.Barriers, e.Messages = s.Now, s.Windows, s.Barriers, s.Messages
	for i := range e.shards {
		sh := &e.shards[i]
		sh.now = s.Shards[i].Now
		sh.Processed = s.Shards[i].Processed
		// Start the calendar-queue ring at the restored clock so future
		// At calls land in the right buckets.
		sh.q.rebase(sh.now)
		sh.nextMin = noEvent
	}
	// Every later event is scheduled at or after the restored clock.
	e.q.rebase(e.now)
	return nil
}
