package sim

import (
	"sync"
	"testing"
	"time"
)

// chainCaller schedules a follow-up event until n events have run.
type chainCaller struct {
	e    *Engine
	left int
	gap  uint64
}

func (c *chainCaller) Call(t uint64, op uint8, a, b uint64) {
	c.left--
	if c.left > 0 {
		c.e.AtCall(t+c.gap, c, 0, 0, 0)
	}
}

func TestSerialEngineTelemetryPublishes(t *testing.T) {
	e := New()
	tel := &Telemetry{}
	e.SetTelemetry(tel)
	c := &chainCaller{e: e, left: 5000, gap: 3}
	e.AtCall(0, c, 0, 0, 0)
	end := e.Run()

	if got := tel.Events.Load(); got != e.Processed {
		t.Fatalf("telemetry events = %d, want %d", got, e.Processed)
	}
	if got := tel.Cycle.Load(); got != end {
		t.Fatalf("telemetry cycle = %d, want %d", got, end)
	}
	if got := tel.Pending.Load(); got != 0 {
		t.Fatalf("telemetry pending = %d, want 0 after drain", got)
	}
	if _, ok := tel.HeartbeatAge(time.Now()); !ok {
		t.Fatal("heartbeat never stamped")
	}
}

func TestSerialEngineTelemetryWatchdogSeries(t *testing.T) {
	e := New()
	wd := NewWatchdog(1 << 20)
	e.SetWatchdog(wd)
	tel := &Telemetry{}
	e.SetTelemetry(tel)
	c := &chainCaller{e: e, left: 2000, gap: 1}
	e.AtCall(0, c, 0, 0, 0)
	mid := uint64(0)
	e.Schedule(500, func() { wd.Progress(e.Now()); mid = e.Now() })
	e.Run()
	if got := tel.WatchdogLast.Load(); got != mid {
		t.Fatalf("watchdog last = %d, want %d", got, mid)
	}
	if got := tel.WatchdogWindow.Load(); got != 1<<20 {
		t.Fatalf("watchdog window = %d", got)
	}
}

func TestTelemetrySharedAcrossEngines(t *testing.T) {
	tel := &Telemetry{}
	var total uint64
	for i := 0; i < 3; i++ {
		e := New()
		e.SetTelemetry(tel)
		c := &chainCaller{e: e, left: 100, gap: 2}
		e.AtCall(0, c, 0, 0, 0)
		e.Run()
		total += e.Processed
	}
	if got := tel.Events.Load(); got != total {
		t.Fatalf("shared telemetry events = %d, want %d (cumulative across engines)", got, total)
	}
}

// TestTelemetryConcurrentScrape reads telemetry from another goroutine
// while the engine runs — the exact deployment shape of the /metrics
// server — under the race detector.
func TestTelemetryConcurrentScrape(t *testing.T) {
	tel := &Telemetry{}
	e := New()
	e.SetTelemetry(tel)
	c := &chainCaller{e: e, left: 200000, gap: 1}
	e.AtCall(0, c, 0, 0, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastCycle uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := tel.Cycle.Load()
			if c < lastCycle {
				t.Error("cycle frontier went backwards")
				return
			}
			lastCycle = c
			tel.Events.Load()
			tel.Pending.Load()
			tel.HeartbeatAge(time.Now())
		}
	}()
	e.Run()
	close(stop)
	wg.Wait()
}

// The benchmark pair backing the zero-overhead-when-off contract for
// telemetry, mirroring the tracing-overhead benchmarks: the Off variant
// must match the historical no-hook numbers, the On variant shows the
// amortized publish cost.

func benchSerialChain(b *testing.B, tel *Telemetry) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		if tel != nil {
			e.SetTelemetry(tel)
		}
		c := &chainCaller{e: e, left: 100000, gap: 2}
		e.AtCall(0, c, 0, 0, 0)
		e.Run()
	}
}

func BenchmarkEngineTelemetryOff(b *testing.B) { benchSerialChain(b, nil) }

func BenchmarkEngineTelemetryOn(b *testing.B) { benchSerialChain(b, &Telemetry{}) }
