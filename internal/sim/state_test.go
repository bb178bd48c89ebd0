package sim

import (
	"strings"
	"testing"
)

// TestEngineStateRoundTrip checks that clocks and counters survive a
// capture/restore cycle and that the restored engine keeps scheduling
// from the captured instant.
func TestEngineStateRoundTrip(t *testing.T) {
	e := New()
	for i := uint64(1); i <= 5; i++ {
		e.Schedule(i*10, func() {})
	}
	e.Run()

	st, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 50 || st.Processed != 5 {
		t.Fatalf("captured state %+v", st)
	}

	fresh := New()
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != 50 {
		t.Fatalf("restored clock %d, want 50", fresh.Now())
	}
	ran := false
	fresh.Schedule(7, func() { ran = true })
	if end := fresh.Run(); end != 57 || !ran {
		t.Fatalf("restored engine ran to %d (ran=%v), want 57", end, ran)
	}
	if fresh.Processed != 6 {
		t.Fatalf("restored Processed = %d, want 6", fresh.Processed)
	}
}

// TestCaptureRefusesPendingEvents pins the quiescence precondition:
// pending events may hold closures, which cannot be serialized, so
// capture and restore must both refuse a non-drained engine.
func TestCaptureRefusesPendingEvents(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	if _, err := e.CaptureState(); err == nil {
		t.Fatal("capture with a pending event succeeded")
	} else if !strings.Contains(err.Error(), "quiescent") {
		t.Fatalf("capture error %q does not name the quiescence precondition", err)
	}
	if err := e.RestoreState(EngineState{Now: 9}); err == nil {
		t.Fatal("restore onto an engine with a pending event succeeded")
	}
}
