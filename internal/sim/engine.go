// Package sim provides a deterministic discrete-event simulation engine
// measured in clock cycles. It is the substrate beneath the XMT machine
// model: every hardware structure (TCU, cluster port, cache module, DRAM
// channel, NoC switch) advances by scheduling events on a shared Engine.
//
// Determinism: events scheduled for the same cycle fire in the order they
// were scheduled (FIFO within a cycle), so repeated runs of the same
// workload produce identical cycle counts.
//
// Two event representations are supported. Closure events (Schedule/At)
// are convenient for tests and ad-hoc callers. Record events (AtCall)
// carry a Caller plus two integer arguments inline in the event record,
// so scheduling allocates nothing: the hot simulation paths (the XMT
// machine's segment continuations) use records exclusively. Both kinds
// share one queue and one (time, seq) order: the slab calendar queue of
// queue.go.
package sim

// Caller receives record events: op discriminates the action, a and b
// are its arguments, and t is the cycle the event fires at. The engine
// interns callers by ==, so implementations must be comparable (in
// practice, pointers).
type Caller interface {
	Call(t uint64, op uint8, a, b uint64)
}

// Hook observes simulation-clock advances. It fires after the engine
// decides the new time but before the event at that time executes, so an
// observer sees resource state exactly as of the end of the interval
// (prev, now]. Hooks must not schedule events; they are a read-only
// observation point used by the trace package's epoch sampler.
type Hook interface {
	Advance(prev, now uint64)
}

// Engine is a single-threaded discrete-event simulator clocked in cycles.
// The zero value is ready to use.
type Engine struct {
	now uint64
	seq uint64 // events ever scheduled; the (time, seq) order is the queue's FIFO order
	q   bucketQueue
	// callers holds the record handlers; a record's who field is its
	// handler's index plus one (0 marks a closure).
	callers []Caller
	// fns is the closure side slab, indexed by a closure record's a
	// field; fnFree lists its vacant slots.
	fns    []func()
	fnFree []uint64

	hook Hook
	wd   *Watchdog
	// Processed counts events executed; useful for progress reporting and
	// for bounding runaway simulations in tests.
	Processed uint64

	tel        *Telemetry
	telFlushed uint64 // Processed value at the last telemetry publish
}

// New returns an empty engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// push queues one record at cycle t, readying the ring on first use.
func (e *Engine) push(t uint64, who uint16, op uint8, a, b uint64) {
	if e.q.bkts == nil {
		e.q.init(serialHorizon)
	}
	e.seq++
	e.q.push(t, who, op, a, b)
}

// pushFunc parks fn in the closure slab and queues its record.
func (e *Engine) pushFunc(t uint64, fn func()) {
	var i uint64
	if n := len(e.fnFree) - 1; n >= 0 {
		i = e.fnFree[n]
		e.fnFree = e.fnFree[:n]
		e.fns[i] = fn
	} else {
		i = uint64(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.push(t, 0, 0, i, 0)
}

// Schedule runs fn after delay cycles (delay 0 means later in the current
// cycle, after already-pending same-cycle events).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.pushFunc(e.now+delay, fn)
}

// At runs fn at the absolute cycle t. Scheduling in the past panics: it
// would silently corrupt causality.
func (e *Engine) At(t uint64, fn func()) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.pushFunc(t, fn)
}

// AtCall schedules the record event (op, a, b) on c at the absolute
// cycle t. It is the allocation-free counterpart of At: the record is
// stored inline in the queue, so steady-state scheduling costs no heap
// traffic. Ordering is identical to At — records and closures share one
// (time, seq) sequence.
func (e *Engine) AtCall(t uint64, c Caller, op uint8, a, b uint64) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.push(t, e.callerIndex(c), op, a, b)
}

// callerIndex returns c's record index, registering c on first use.
// Models schedule through a handful of callers, so a scan is cheapest.
func (e *Engine) callerIndex(c Caller) uint16 {
	for i, k := range e.callers {
		if k == c {
			return uint16(i + 1)
		}
	}
	if len(e.callers) == 1<<16-1 {
		panic("sim: too many distinct callers")
	}
	e.callers = append(e.callers, c)
	return uint16(len(e.callers))
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.count }

// SetHook installs (or, with nil, removes) the clock-advance observer.
// The hook pointer is checked on every advance, so a nil hook costs one
// predictable branch — the basis of the tracing layer's zero-overhead-
// when-disabled contract.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// Step executes the single next event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	q := &e.q
	if q.count == 0 {
		return false
	}
	t := q.minTime()
	q.advanceBase(t)
	r := q.popFront(t)
	if e.wd != nil && e.wd.expired(t) {
		panic(&WatchdogError{Window: e.wd.Window, LastProgress: e.wd.last,
			Now: t, Dump: e.dumpState()})
	}
	if e.hook != nil && t > e.now {
		e.hook.Advance(e.now, t)
	}
	e.now = t
	e.Processed++
	if r.who == 0 {
		fn := e.fns[r.a]
		e.fns[r.a] = nil // drop the closure reference for GC
		e.fnFree = append(e.fnFree, r.a)
		fn()
	} else {
		e.callers[r.who-1].Call(t, r.op, r.a, r.b)
	}
	if e.tel != nil && (e.Processed-e.telFlushed >= telemetryBatch || q.count == 0) {
		e.publishTelemetry()
	}
	return true
}

// Run executes events until the queue drains, returning the final cycle.
func (e *Engine) Run() uint64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time <= limit. Events beyond the limit
// remain queued. It returns the current cycle afterwards.
func (e *Engine) RunUntil(limit uint64) uint64 {
	for e.q.count > 0 && e.q.minTime() <= limit {
		e.Step()
	}
	if e.now < limit && e.q.count == 0 {
		if e.hook != nil {
			e.hook.Advance(e.now, limit)
		}
		e.now = limit
		if e.tel != nil {
			e.publishTelemetry()
		}
	}
	return e.now
}
