package sim

import (
	"sync/atomic"
	"time"
)

// Telemetry is the engine's live publication surface: a set of atomic
// counters a concurrent observer (the harness's /metrics HTTP server)
// may read at any time while the simulation runs. It deliberately knows
// nothing about metric names or exposition formats — internal/harness
// bridges it onto an internal/metrics registry.
//
// The contract mirrors tracing's zero-overhead-when-off guarantee
// (DESIGN.md §5): a nil telemetry sink costs the engine one predictable
// branch per event, and an installed sink is write-only from the engine
// side — it can never change event order, cycle counts, or statistics.
// The engine batches its publishes (every telemetryBatch events, plus on
// queue drain) so the per-event cost stays a counter increment.
//
// Events is a delta accumulated with Add, so one Telemetry can be shared
// across a sequence of engines — an ablation sweep builds a fresh
// machine per variant and the total keeps rising monotonically. Frontier
// values (Cycle, Pending) are Store'd snapshots of the currently
// attached engine.
type Telemetry struct {
	Cycle   atomic.Uint64 // simulated-cycle frontier of the attached engine
	Events  atomic.Uint64 // events executed (cumulative across engines)
	Pending atomic.Uint64 // events currently queued

	// WatchdogLast is the cycle of the latest watchdog progress mark;
	// WatchdogWindow its abort threshold. Both zero when no watchdog is
	// installed on the publishing engine.
	WatchdogLast   atomic.Uint64
	WatchdogWindow atomic.Uint64

	// lastPublish is the wall-clock time (UnixNano) of the most recent
	// engine publish — the liveness heartbeat. A scraper computes the
	// heartbeat age to tell "simulator wedged" from "simulator slow".
	lastPublish atomic.Int64
}

// telemetryBatch is the engine's publish stride in events: large enough
// that the amortized publish cost vanishes, small enough that a scrape
// is never more than a few microseconds of simulation stale.
const telemetryBatch = 1024

// Beat stamps the liveness heartbeat; the engine calls it on every
// publish.
func (t *Telemetry) Beat() { t.lastPublish.Store(time.Now().UnixNano()) }

// HeartbeatAge returns the wall-clock time since the last engine
// publish, and false if nothing has published yet.
func (t *Telemetry) HeartbeatAge(now time.Time) (time.Duration, bool) {
	ns := t.lastPublish.Load()
	if ns == 0 {
		return 0, false
	}
	return now.Sub(time.Unix(0, ns)), true
}

// SetTelemetry installs (or, with nil, removes) a live telemetry sink.
// Like SetHook, the nil check is one branch per event, so the off state
// keeps the engine's zero-overhead contract.
func (e *Engine) SetTelemetry(t *Telemetry) {
	e.tel = t
	e.telFlushed = e.Processed
	if t != nil {
		e.publishTelemetry()
	}
}

// publishTelemetry flushes the engine's state to the sink.
func (e *Engine) publishTelemetry() {
	t := e.tel
	delta := e.Processed - e.telFlushed
	e.telFlushed = e.Processed
	t.Events.Add(delta)
	t.Cycle.Store(e.now)
	t.Pending.Store(uint64(e.q.count))
	if e.wd != nil {
		t.WatchdogLast.Store(e.wd.last)
		t.WatchdogWindow.Store(e.wd.Window)
	}
	t.Beat()
}
