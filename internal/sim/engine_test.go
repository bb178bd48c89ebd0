package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := New()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at cycle %d, want 0", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle: FIFO
	e.Schedule(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("final cycle = %d, want 20", e.Now())
	}
}

type advanceLog struct {
	intervals [][2]uint64
}

func (l *advanceLog) Advance(prev, now uint64) {
	l.intervals = append(l.intervals, [2]uint64{prev, now})
}

func TestEngineHookSeesEveryClockAdvance(t *testing.T) {
	e := New()
	log := &advanceLog{}
	e.SetHook(log)
	e.Schedule(5, func() {})
	e.Schedule(5, func() {}) // same cycle: no second advance
	e.Schedule(9, func() {})
	e.Run()
	// RunUntil past the (empty) queue is also a clock advance.
	e.RunUntil(20)
	want := [][2]uint64{{0, 5}, {5, 9}, {9, 20}}
	if len(log.intervals) != len(want) {
		t.Fatalf("advances = %v, want %v", log.intervals, want)
	}
	for i, w := range want {
		if log.intervals[i] != w {
			t.Fatalf("advances = %v, want %v", log.intervals, want)
		}
	}
	// Removing the hook stops observation.
	e.SetHook(nil)
	e.Schedule(3, func() {})
	e.Run()
	if len(log.intervals) != len(want) {
		t.Fatalf("hook fired after removal: %v", log.intervals)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var fired []uint64
	e.Schedule(1, func() {
		fired = append(fired, e.Now())
		e.Schedule(2, func() {
			fired = append(fired, e.Now())
			e.Schedule(0, func() { fired = append(fired, e.Now()) })
		})
	})
	e.Run()
	want := []uint64{1, 3, 3}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired int
	for _, d := range []uint64{1, 5, 9, 10, 11, 30} {
		e.Schedule(d, func() { fired++ })
	}
	e.RunUntil(10)
	if fired != 4 {
		t.Fatalf("fired = %d at limit 10, want 4", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if fired != 6 {
		t.Fatalf("fired = %d after full run, want 6", fired)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order of random delays.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var times []uint64
		for _, d := range delays {
			e.Schedule(uint64(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var trace []uint64
		var rec func(depth int)
		rec = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					e.Schedule(uint64(rng.Intn(7)), func() { rec(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			e.Schedule(uint64(rng.Intn(50)), func() { rec(0) })
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPortSingleWidth(t *testing.T) {
	p := NewPort(1)
	if g := p.Grant(5); g != 5 {
		t.Fatalf("first grant = %d, want 5", g)
	}
	if g := p.Grant(5); g != 6 {
		t.Fatalf("second grant = %d, want 6", g)
	}
	if g := p.Grant(3); g != 7 {
		t.Fatalf("backlogged grant = %d, want 7", g)
	}
	if g := p.Grant(100); g != 100 {
		t.Fatalf("idle grant = %d, want 100", g)
	}
	if p.Busy != 4 {
		t.Fatalf("busy = %d, want 4", p.Busy)
	}
}

func TestPortWide(t *testing.T) {
	p := NewPort(3)
	got := []uint64{p.Grant(0), p.Grant(0), p.Grant(0), p.Grant(0)}
	want := []uint64{0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestPortGrantN(t *testing.T) {
	p := NewPort(1)
	if g := p.GrantN(10, 4); g != 10 {
		t.Fatalf("burst grant = %d, want 10", g)
	}
	// Channel occupied for cycles 10..13; next single grant lands at 14.
	if g := p.Grant(0); g != 14 {
		t.Fatalf("post-burst grant = %d, want 14", g)
	}
}

func TestPortZeroWidthDefaultsToOne(t *testing.T) {
	var p Port // zero value usable
	if g := p.Grant(0); g != 0 {
		t.Fatalf("grant = %d, want 0", g)
	}
	if g := p.Grant(0); g != 1 {
		t.Fatalf("grant = %d, want 1", g)
	}
}

// Property: a width-w port grants at most w slots per cycle and never
// grants before the request time.
func TestPortThroughputProperty(t *testing.T) {
	f := func(width uint8, reqs []uint8) bool {
		w := uint64(width%4) + 1
		p := NewPort(w)
		times := make([]uint64, len(reqs))
		for i, r := range reqs {
			times[i] = uint64(r % 8)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		perCycle := map[uint64]uint64{}
		for _, r := range times {
			g := p.Grant(r)
			if g < r {
				return false
			}
			perCycle[g]++
			if perCycle[g] > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeTraverse(t *testing.T) {
	p := NewPipe(7, 2)
	if got := p.Traverse(0); got != 7 {
		t.Fatalf("exit = %d, want 7", got)
	}
	if got := p.Traverse(0); got != 7 {
		t.Fatalf("exit = %d, want 7 (width 2)", got)
	}
	if got := p.Traverse(0); got != 8 {
		t.Fatalf("exit = %d, want 8 (third in cycle)", got)
	}
}

func TestGrantNLast(t *testing.T) {
	// Width-4 port: 10 slots from cycle 0 occupy cycles 0,0,0,0,1,1,1,1,2,2;
	// the last grant lands at cycle 2.
	p := NewPort(4)
	if last := p.GrantNLast(0, 10); last != 2 {
		t.Fatalf("last = %d, want 2", last)
	}
	// Zero-op segment completes immediately.
	if last := p.GrantNLast(7, 0); last != 7 {
		t.Fatalf("empty segment last = %d, want 7", last)
	}
	// Width-1: n ops end n-1 cycles after the first.
	q := NewPort(1)
	if last := q.GrantNLast(5, 3); last != 7 {
		t.Fatalf("width-1 last = %d, want 7", last)
	}
}

func TestGrantNSharesSlots(t *testing.T) {
	// On a wide port, GrantN must pack slots into cycles rather than
	// serializing (the bug the FPU-width test originally caught).
	p := NewPort(4)
	first := p.GrantN(0, 8)
	if first != 0 {
		t.Fatalf("first = %d", first)
	}
	// 8 slots at width 4 = cycles 0 and 1; a 9th request lands at 2.
	if g := p.Grant(0); g != 2 {
		t.Fatalf("next grant = %d, want 2", g)
	}
}

// refGrantN is the per-slot definition GrantN and GrantNLast must match:
// n successive Grant(t) calls, returning the first and the latest slot.
func refGrantN(p *Port, t, n uint64) (first, last uint64) {
	if n == 0 {
		return t, t
	}
	first = p.Grant(t)
	last = first
	for i := uint64(1); i < n; i++ {
		if g := p.Grant(t); g > last {
			last = g
		}
	}
	return first, last
}

// TestGrantNClosedFormMatchesPerSlot checks the O(1) GrantN/GrantNLast
// against the per-slot loop from random port states, including the
// zero-value width-0 port and over-full cycles (used >= Width).
func TestGrantNClosedFormMatchesPerSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20000; iter++ {
		w := uint64(rng.Intn(7)) // 0 = zero-value port, granting as width 1
		start := PortState{
			NextFree: uint64(rng.Intn(64)),
			Used:     uint64(rng.Intn(int(w) + 3)),
			Busy:     uint64(rng.Intn(1000)),
		}
		tm := uint64(rng.Intn(96))
		n := uint64(rng.Intn(48))
		ref := Port{Width: w}
		ref.RestoreState(start)
		wantFirst, wantLast := refGrantN(&ref, tm, n)

		p := Port{Width: w}
		p.RestoreState(start)
		if got := p.GrantN(tm, n); got != wantFirst || p.State() != ref.State() {
			t.Fatalf("width %d from %+v: GrantN(%d, %d) = %d, state %+v; per-slot gives %d, state %+v",
				w, start, tm, n, got, p.State(), wantFirst, ref.State())
		}
		q := Port{Width: w}
		q.RestoreState(start)
		if got := q.GrantNLast(tm, n); got != wantLast || q.State() != ref.State() {
			t.Fatalf("width %d from %+v: GrantNLast(%d, %d) = %d, state %+v; per-slot gives %d, state %+v",
				w, start, tm, n, got, q.State(), wantLast, ref.State())
		}
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(uint64(i), func() {})
	}
	e.Run()
	if e.Processed != 5 {
		t.Fatalf("processed = %d, want 5", e.Processed)
	}
}

func TestPipeZeroWidthDefaults(t *testing.T) {
	p := NewPipe(3, 0) // zero width behaves as width 1
	if got := p.Traverse(0); got != 3 {
		t.Fatalf("exit = %d", got)
	}
	if got := p.Traverse(0); got != 4 {
		t.Fatalf("second exit = %d", got)
	}
}
