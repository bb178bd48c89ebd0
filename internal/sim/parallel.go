package sim

import (
	"fmt"
	"slices"
)

// Conservative parallel discrete-event simulation (PDES) with time
// windows. State is partitioned into shards that interact only through
// boundary messages: within a window [T, T+W) every shard executes its
// local events independently, and at the window barrier the coordinator
// merges all emitted messages in deterministic (time, shard, send order)
// order and converts them into future events. W (the lookahead) must not
// exceed the minimum cross-shard effect latency, so no message ever
// needs to take effect inside the window it was sent in — the classic
// conservative-synchronization safety condition. Under that condition
// the serial driver (one shared queue, events popped in global time
// order) and the parallel driver (a queue per shard, shards advanced on
// worker goroutines) execute the exact same events in the exact same
// per-shard order with the exact same barrier merges, making cycle
// counts and statistics bit-identical for every worker count. See
// DESIGN.md §7.
//
// Pending events live in the slab-backed calendar queue of queue.go: a
// serialHorizon ring for the serial driver's shared queue, a
// horizonCycles ring per shard for the parallel driver.

// Message is one cross-shard event, emitted by a shard during a window
// and delivered to the coordinator's barrier function at the end of that
// window. Kind and the operand fields are opaque to the engine; Time,
// Src and the position in the shard's outbox (shards emit in
// nondecreasing time order) define the deterministic merge order.
type Message struct {
	Time       uint64 // sending event's cycle
	Src        int32  // sending shard
	Kind       uint8
	A, B, C, D uint64
}

// ShardHandler executes one shard's events. Implementations receive the
// owning shard so they can schedule follow-up local events (Shard.At)
// and emit cross-shard messages (Shard.Send).
type ShardHandler interface {
	// Event fires one local event at cycle t.
	Event(sh *Shard, t uint64, op uint8, a, b uint64)
}

// Partition routes model entities to shards and states the model's
// lookahead; the engine takes its shard count and window width from it.
type Partition interface {
	// Shards returns the number of state shards.
	Shards() int
	// Lookahead returns the conservative window width W in cycles: a
	// lower bound on the delay between a cross-shard message being sent
	// and its earliest effect. Must be at least 1.
	Lookahead() uint64
}

// Shard is one partition of simulation state: a clock, its pending
// local events, and an outbox of messages for the next barrier. During a
// window a shard is touched only by its own handler (possibly on a
// worker goroutine); between windows only by the coordinator.
type Shard struct {
	// nextMin caches the earliest pending event time (noEvent when the
	// queue is empty). At lowers it, runWindow recomputes it, and the
	// engine's window loop reads it instead of rescanning bucket rings —
	// the basis of the adaptive frontier jump and the idle-shard skip.
	// It and out lead the struct because the parallel driver reads both
	// for every shard on every window.
	nextMin uint64
	out     []Message

	ID int

	eng     *ParallelEngine
	handler ShardHandler
	now     uint64
	// q holds the shard's events under the parallel driver. Under the
	// serial driver they live in the engine's shared queue and pending
	// counts them.
	q       bucketQueue
	pending int
	// Processed counts events executed on this shard.
	Processed uint64
}

// Now returns the shard's current cycle.
func (s *Shard) Now() uint64 { return s.now }

// Pending reports the number of events queued on this shard.
func (s *Shard) Pending() int {
	if s.eng.shared {
		return s.pending
	}
	return s.q.count
}

// At schedules a local event at the absolute cycle t. Scheduling in the
// shard's past panics — inside a window that means before the event
// currently executing; from the coordinator it means before the window
// barrier, which would violate the lookahead contract.
func (s *Shard) At(t uint64, op uint8, a, b uint64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling shard event in the past: t=%d now=%d shard=%d op=%d a=%d b=%d", t, s.now, s.ID, op, a, b))
	}
	if e := s.eng; e.shared {
		// The shared ring floor is the running window's start, or the
		// barrier time between windows.
		if t < e.q.base {
			panic(fmt.Sprintf("sim: scheduling shard event before the window barrier: t=%d barrier=%d shard=%d op=%d", t, e.q.base, s.ID, op))
		}
		s.pending++
		e.q.push(t, uint16(s.ID), op, a, b)
		return
	}
	if t < s.nextMin {
		s.nextMin = t
	}
	s.q.push(t, 0, op, a, b)
}

// Send emits a cross-shard message, delivered to the engine's barrier
// function at the end of the current window. The message is stamped with
// the sending event's cycle; because a shard executes events in
// nondecreasing time order, its outbox is time-sorted by construction
// and the outbox position is the within-cycle tiebreak — no per-message
// sequence number is stored.
func (s *Shard) Send(kind uint8, a, b, c, d uint64) {
	s.out = append(s.out, Message{
		Time: s.now, Src: int32(s.ID), Kind: kind,
		A: a, B: b, C: c, D: d,
	})
}

// runWindow executes this shard's events with time in [start, end),
// leaving the shard clock at end and the cached nextMin exact.
func (s *Shard) runWindow(start, end uint64) {
	q := &s.q
	if s.now < start {
		s.now = start
	}
	// start is the global minimum pending time, so no event precedes it
	// and the ring floor may advance to it, promoting any overflow events
	// that now fall within the horizon (which covers the whole window:
	// window < horizon is checked at construction).
	q.advanceBase(start)
	for q.bucketed > 0 {
		c := q.firstBucketed()
		if c >= end {
			break
		}
		s.now = c
		// Drain the cycle's chain; the handler may append same-cycle
		// events, which link in behind the records still queued.
		for q.bkts[c&q.mask].head >= 0 {
			r := q.popFront(c)
			s.Processed++
			s.handler.Event(s, c, r.op, r.a, r.b)
		}
	}
	s.now = end
	q.advanceBase(end)
	s.nextMin = q.minTime()
}

// ParallelEngine advances a set of shards under conservative time
// windows. Construct with NewParallelEngine, assign a handler per shard
// and a barrier function, then call Run. The engine is quiescent between
// Run calls; the worker count only changes wall-clock behaviour, never
// results.
//
// The worker count fixes the driver at construction. With one worker (or
// one shard) the serial driver keeps every shard's events in one shared
// calendar queue, tagged with the shard index, and pops each window's
// events in global (time, FIFO) order. Per shard that is the same event
// order as advancing the shards one after another, and a shard event
// touches only its own shard, so the result is the same; what changes is
// that one hot ring replaces a cold ring per shard. With more workers
// the parallel driver keeps a queue per shard and advances the shards on
// goroutines.
type ParallelEngine struct {
	shards  []Shard
	window  uint64
	barrier func([]Message)
	hook    Hook
	wd      *Watchdog
	now     uint64

	// workers is the number of goroutines advancing shards inside a
	// window. With fewer than two workers or two shards there is nothing
	// to run concurrently, and shared selects the serial driver, whose
	// queue is q.
	workers int
	shared  bool
	q       bucketQueue

	// WidenWindows (default true, set by NewParallelEngine) enables the
	// adaptive window driver: the frontier jumps straight to the cached
	// per-shard minimum instead of rescanning every bucket ring, shards
	// with no events inside the window are skipped entirely, and windows
	// that emitted no cross-shard traffic coalesce into the running
	// stretch without barrier accounting. When false the engine uses the
	// conservative reference driver — every window rescans every queue
	// and steps every shard — which executes the exact same events in
	// the exact same order; the differential tests assert bit-identical
	// results between the two drivers at several worker counts. Only the
	// parallel driver reads it: the serial driver has no per-shard rings
	// to rescan and no idle shards to step.
	WidenWindows bool

	// Window/merge statistics for perf diagnostics. Windows counts
	// [start, start+W) windows advanced; Barriers counts the subset that
	// delivered messages (the true synchronization points — with
	// WidenWindows the rest are coalesced frontier jumps).
	Windows  uint64
	Barriers uint64
	Messages uint64

	// Scratch of collect, reused across windows.
	merged  []Message
	senders []int32 // shards with a non-empty outbox
	slots   []int   // per-cycle merge slots

	tel             *Telemetry
	telShardFlushed []uint64 // per-shard Processed at the last shard sweep
	telMsgFlushed   uint64
	telWinFlushed   uint64
}

// NewParallelEngine builds an engine for p's shard count and lookahead.
func NewParallelEngine(p Partition, workers int) *ParallelEngine {
	n := p.Shards()
	w := p.Lookahead()
	if n <= 0 {
		panic("sim: partition must have at least one shard")
	}
	if w == 0 || w >= horizonCycles {
		panic("sim: lookahead window must be in [1, horizon)")
	}
	e := &ParallelEngine{shards: make([]Shard, n), window: w, workers: workers,
		WidenWindows: true, shared: workers < 2 || n < 2}
	if e.shared {
		if n > 1<<16 {
			panic("sim: the serial driver tags events with a 16-bit shard index")
		}
		e.q.init(serialHorizon)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.ID = i
		sh.eng = e
		sh.nextMin = noEvent
		if !e.shared {
			sh.q.init(horizonCycles)
		}
	}
	return e
}

// Workers returns the worker count the engine was built with.
func (e *ParallelEngine) Workers() int { return e.workers }

// Shard returns shard i, for handler assignment and event insertion by
// the coordinator (only between windows).
func (e *ParallelEngine) Shard(i int) *Shard { return &e.shards[i] }

// Shards returns the shard count.
func (e *ParallelEngine) Shards() int { return len(e.shards) }

// Window returns the lookahead window width in cycles.
func (e *ParallelEngine) Window() uint64 { return e.window }

// SetHandler assigns the event handler of shard i.
func (e *ParallelEngine) SetHandler(i int, h ShardHandler) { e.shards[i].handler = h }

// SetBarrier assigns the coordinator function invoked after every window
// that produced messages, with the merged batch in (time, shard, send
// order) order. The barrier runs single-threaded and may schedule events
// on any shard via Shard.At, at cycles no earlier than the barrier time.
func (e *ParallelEngine) SetBarrier(f func([]Message)) { e.barrier = f }

// SetHook installs a clock observer, fired once per window with the
// window's bounds after the window's events have executed.
func (e *ParallelEngine) SetHook(h Hook) { e.hook = h }

// Now returns the engine clock: the end of the last completed window.
func (e *ParallelEngine) Now() uint64 { return e.now }

// Pending reports the total number of queued events across shards.
func (e *ParallelEngine) Pending() int {
	if e.shared {
		return e.q.count
	}
	n := 0
	for i := range e.shards {
		n += e.shards[i].q.count
	}
	return n
}

// minNext returns the earliest pending event time across shards, from
// the cached per-shard minima (exact: At lowers a cache entry on every
// push and runWindow recomputes it on every execution).
func (e *ParallelEngine) minNext() (uint64, bool) {
	best := noEvent
	for i := range e.shards {
		if m := e.shards[i].nextMin; m < best {
			best = m
		}
	}
	return best, best != noEvent
}

// minNextScan recomputes the earliest pending event time by scanning
// every shard queue — the pre-adaptive reference path, kept for the
// WidenWindows=false driver and as the cross-check oracle in tests.
func (e *ParallelEngine) minNextScan() (uint64, bool) {
	best := noEvent
	ok := false
	for i := range e.shards {
		if t, has := e.shards[i].q.min(); has && t < best {
			best = t
			ok = true
		}
	}
	return best, ok
}

// Run advances windows until no shard has pending events, then returns
// the engine clock. The first window starts at the earliest pending
// event (idle gaps are skipped, so sparse schedules don't pay per-cycle
// costs).
func (e *ParallelEngine) Run() uint64 {
	if e.shared {
		return e.runShared()
	}
	workers := min(e.workers, len(e.shards))
	adaptive := e.WidenWindows
	starts := make([]chan [2]uint64, workers)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		starts[w] = make(chan [2]uint64, 1)
		go func(w int) {
			for win := range starts[w] {
				for si := w; si < len(e.shards); si += workers {
					// Idle-shard skip: a shard with no events before the
					// window end has nothing to run; its clock and ring
					// floor catch up lazily on its next active window
					// (runWindow tolerates a stale clock).
					if !adaptive || e.shards[si].nextMin < win[1] {
						e.shards[si].runWindow(win[0], win[1])
					}
				}
				done <- struct{}{}
			}
		}(w)
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
	}()

	for {
		var start uint64
		var ok bool
		if adaptive {
			start, ok = e.minNext()
		} else {
			start, ok = e.minNextScan()
		}
		if !ok {
			return e.finishRun()
		}
		end := e.beginWindow(start)
		for _, c := range starts {
			c <- [2]uint64{start, end}
		}
		for range starts {
			<-done
		}
		senders := e.senders[:0]
		for i := range e.shards {
			if len(e.shards[i].out) > 0 {
				senders = append(senders, int32(i))
			}
		}
		e.senders = senders
		e.endWindow(start, end)
	}
}

// runShared is Run's serial driver over the shared queue.
func (e *ParallelEngine) runShared() uint64 {
	q := &e.q
	for q.count > 0 {
		start := q.minTime()
		end := e.beginWindow(start)
		// Every window event is bucketed: advanceBase promotes overflow
		// within the horizon, which covers the window.
		q.advanceBase(start)
		senders := e.senders[:0]
		for q.bucketed > 0 {
			c := q.firstBucketed()
			if c >= end {
				break
			}
			for q.bkts[c&q.mask].head >= 0 {
				r := q.popFront(c)
				sh := &e.shards[r.who]
				sent := len(sh.out)
				sh.now = c
				sh.pending--
				sh.Processed++
				sh.handler.Event(sh, c, r.op, r.a, r.b)
				// Like the parallel driver, leave an active shard's
				// clock at the window end.
				sh.now = end
				if sent == 0 && len(sh.out) > 0 {
					senders = append(senders, int32(r.who))
				}
			}
		}
		q.advanceBase(end)
		// collect merges in shard order.
		slices.Sort(senders)
		e.senders = senders
		e.endWindow(start, end)
	}
	return e.finishRun()
}

// beginWindow opens the window starting at the earliest pending event
// and returns its end, aborting through the watchdog when the model has
// stopped making progress.
func (e *ParallelEngine) beginWindow(start uint64) uint64 {
	if e.wd != nil && e.wd.expired(start) {
		panic(&WatchdogError{Window: e.wd.Window, LastProgress: e.wd.last,
			Now: start, Dump: e.dumpState()})
	}
	e.Windows++
	return start + e.window
}

// endWindow closes a window whose events have run and whose senders are
// listed in e.senders: it moves the engine clock to end, fires the hook,
// delivers the merged messages to the barrier and clears the outboxes.
func (e *ParallelEngine) endWindow(start, end uint64) {
	prev := e.now
	e.now = end
	if e.hook != nil {
		e.hook.Advance(prev, end)
	}
	if msgs := e.collect(start); len(msgs) > 0 {
		e.Barriers++
		e.Messages += uint64(len(msgs))
		e.barrier(msgs)
		for _, i := range e.senders {
			e.shards[i].out = e.shards[i].out[:0]
		}
	}
	if e.tel != nil {
		// Shards are parked at the barrier here, so a full sweep is
		// race-free; the cheap frontier publish covers other windows.
		if e.Windows%telemetryWindowStride == 0 {
			e.publishShards()
		} else {
			e.publishWindow()
		}
	}
}

// finishRun publishes the final telemetry of a drained run and returns
// the engine clock.
func (e *ParallelEngine) finishRun() uint64 {
	if e.tel != nil {
		e.publishShards()
	}
	return e.now
}

// AdvanceTo moves the quiescent engine's clock (and every shard's) to t,
// firing the hook across the gap. It panics if events are pending: it
// models serial time passing between parallel sections, not event
// execution.
func (e *ParallelEngine) AdvanceTo(t uint64) {
	if e.Pending() != 0 {
		panic("sim: AdvanceTo with pending events")
	}
	if t < e.now {
		panic("sim: AdvanceTo into the past")
	}
	for i := range e.shards {
		if e.shards[i].now < t {
			e.shards[i].now = t
		}
		e.shards[i].q.advanceBase(t)
	}
	e.q.advanceBase(t)
	if t > e.now {
		if e.hook != nil {
			e.hook.Advance(e.now, t)
		}
		e.now = t
	}
	if e.tel != nil {
		e.publishShards()
	}
}

// collect returns the window's messages from the outboxes of e.senders
// in (time, shard, send order) order — a total order, since each outbox
// is positionally ordered. Run clears the outboxes after the barrier. A
// lone sender's outbox already is that order and is returned uncopied.
// Otherwise, since every message's time lies in the just-finished window
// [start, start+W) (Send stamps the sending event's cycle), a stable
// counting sort on the cycle offset merges the outboxes: count per
// cycle, prefix-sum the counts into slots, then scatter the outboxes in
// shard order.
func (e *ParallelEngine) collect(start uint64) []Message {
	senders := e.senders
	switch len(senders) {
	case 0:
		return nil
	case 1:
		return e.shards[senders[0]].out
	}
	total := 0
	if uint64(len(e.slots)) < e.window {
		e.slots = make([]int, e.window)
	}
	slots := e.slots[:e.window]
	for i := range slots {
		slots[i] = 0
	}
	for _, i := range senders {
		for _, msg := range e.shards[i].out {
			d := msg.Time - start
			if d >= e.window {
				panic("sim: message stamped outside its sending window")
			}
			slots[d]++
		}
		total += len(e.shards[i].out)
	}
	sum := 0
	for d, c := range slots {
		slots[d] = sum
		sum += c
	}
	if cap(e.merged) < total {
		e.merged = make([]Message, total)
	}
	m := e.merged[:total]
	for _, i := range senders {
		for _, msg := range e.shards[i].out {
			d := msg.Time - start
			m[slots[d]] = msg
			slots[d]++
		}
	}
	e.merged = m
	return m
}
