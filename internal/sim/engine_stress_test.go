package sim

import (
	"math/rand"
	"testing"
)

// seqCaller records Call dispatches for AtCall tests.
type seqCaller struct {
	got []uint64
}

func (c *seqCaller) Call(t uint64, op uint8, a, b uint64) {
	c.got = append(c.got, a)
}

// TestEngineSameCycleFIFOHeavy schedules thousands of events on a
// handful of cycles, from both the outside and from within running
// events, interleaving closure (Schedule/At) and record (AtCall) forms.
// Global scheduling order must be preserved within each cycle regardless
// of form — the property the golden cycle counts rest on.
func TestEngineSameCycleFIFOHeavy(t *testing.T) {
	e := New()
	c := &seqCaller{}
	rng := rand.New(rand.NewSource(7))
	var want []uint64
	seq := uint64(0)
	addAt := func(cycle uint64) {
		seq++
		s := seq
		if rng.Intn(2) == 0 {
			e.At(cycle, func() { c.got = append(c.got, s) })
		} else {
			e.AtCall(cycle, c, 0, s, 0)
		}
		want = append(want, s)
	}
	// Three hot cycles, scheduled in cycle order so `want` matches
	// execution order; heavy fan-in per cycle.
	for _, cycle := range []uint64{10, 11, 12} {
		for i := 0; i < 2000; i++ {
			addAt(cycle)
		}
	}
	// From inside an event at cycle 12, pile more onto the same cycle.
	e.At(12, func() {
		for i := 0; i < 1000; i++ {
			addAt(12)
		}
	})
	e.Run()
	if len(c.got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(c.got), len(want))
	}
	for i := range want {
		if c.got[i] != want[i] {
			t.Fatalf("order diverges at %d: got %d, want %d", i, c.got[i], want[i])
		}
	}
}

// hookOrderLog asserts the hook fires after all events of the previous
// cycle and before any event of the next.
type hookOrderLog struct {
	entries []string
}

func (h *hookOrderLog) Advance(prev, now uint64) {
	h.entries = append(h.entries, "advance")
}

func TestEngineHookOrderingRelativeToEvents(t *testing.T) {
	e := New()
	h := &hookOrderLog{}
	e.SetHook(h)
	ev := func() { h.entries = append(h.entries, "event") }
	e.Schedule(5, ev)
	e.Schedule(5, ev)
	e.Schedule(8, ev)
	e.Run()
	want := []string{"advance", "event", "event", "advance", "event"}
	if len(h.entries) != len(want) {
		t.Fatalf("entries = %v, want %v", h.entries, want)
	}
	for i := range want {
		if h.entries[i] != want[i] {
			t.Fatalf("entries = %v, want %v", h.entries, want)
		}
	}
}

// TestEngineAtCallMixedDeterminism replays a random mixed closure/record
// workload twice and requires identical execution traces — the serial
// engine's determinism contract extended to the AtCall path.
func TestEngineAtCallMixedDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		e := New()
		c := &seqCaller{}
		rng := rand.New(rand.NewSource(seed))
		var drive func(depth uint64)
		drive = func(depth uint64) {
			if depth == 0 {
				return
			}
			n := rng.Intn(4)
			base := e.Now()
			for i := 0; i < n; i++ {
				d := uint64(rng.Intn(20))
				if rng.Intn(2) == 0 {
					e.AtCall(base+d, c, 0, depth*100+uint64(i), 0)
				} else {
					dd := depth - 1
					e.At(base+d, func() { drive(dd) })
				}
			}
		}
		for i := 0; i < 50; i++ {
			e.At(uint64(rng.Intn(100)), func() { drive(3) })
		}
		e.Run()
		return c.got
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d calls", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
