package sim

import (
	"strings"
	"testing"
)

// rescheduler models a livelock: every event schedules another one a
// fixed delay later, forever, without ever marking progress.
type rescheduler struct {
	e     *Engine
	delay uint64
	fired int
}

func (r *rescheduler) tick() {
	r.fired++
	r.e.Schedule(r.delay, r.tick)
}

func TestEngineWatchdogAbortsLivelock(t *testing.T) {
	e := New()
	wd := NewWatchdog(1000)
	e.SetWatchdog(wd)
	wd.Progress(0)
	r := &rescheduler{e: e, delay: 64}
	e.Schedule(0, r.tick)

	var got *WatchdogError
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				we, ok := rec.(*WatchdogError)
				if !ok {
					t.Fatalf("panic was not a WatchdogError: %v", rec)
				}
				got = we
			}
		}()
		e.Run()
	}()
	if got == nil {
		t.Fatal("watchdog never fired on a livelocked engine")
	}
	if got.Now <= got.LastProgress+got.Window {
		t.Fatalf("fired too early: now %d, last %d, window %d", got.Now, got.LastProgress, got.Window)
	}
	if !strings.Contains(got.Dump, "serial engine") || !strings.Contains(got.Dump, "pending=") {
		t.Fatalf("dump missing queue state: %q", got.Dump)
	}
	if !strings.Contains(got.Error(), "watchdog") {
		t.Fatalf("error text missing watchdog: %q", got.Error())
	}
}

func TestEngineWatchdogQuietWithProgress(t *testing.T) {
	e := New()
	wd := NewWatchdog(300)
	e.SetWatchdog(wd)
	// Events spaced just inside the window, each marking progress.
	for i := uint64(1); i <= 10; i++ {
		at := i * 250
		e.At(at, func() { wd.Progress(e.Now()) })
	}
	end := e.Run()
	if end != 2500 {
		t.Fatalf("run ended at %d, want 2500", end)
	}
}
