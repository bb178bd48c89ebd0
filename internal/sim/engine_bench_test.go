package sim

import "testing"

// The schedule/dispatch hot path, in both forms. The closure form
// allocates per event (closure capture); the record form (AtCall) stays
// allocation-free in steady state — run with -benchmem to see the pair:
//
//	go test ./internal/sim -bench=EngineSchedule -benchmem
type benchCaller struct{ sum uint64 }

func (c *benchCaller) Call(t uint64, op uint8, a, b uint64) { c.sum += a }

func BenchmarkEngineScheduleClosure(b *testing.B) {
	e := New()
	var sum uint64
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		base := e.Now()
		for j := 0; j < batch; j++ {
			v := uint64(j)
			e.At(base+uint64(j%16), func() { sum += v })
		}
		e.Run()
	}
	_ = sum
}

func BenchmarkEngineScheduleRecord(b *testing.B) {
	e := New()
	c := &benchCaller{}
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.AtCall(base+uint64(j%16), c, 0, uint64(j), 0)
		}
		e.Run()
	}
}

// BenchmarkEngineScheduleRecordOverflow schedules every record beyond
// the serial ring, so each batch goes through the overflow heap and is
// promoted into the ring before it runs.
func BenchmarkEngineScheduleRecordOverflow(b *testing.B) {
	e := New()
	c := &benchCaller{}
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		scheduleOverflowBatch(e, c, batch)
		e.Run()
	}
}

// scheduleOverflowBatch queues n records spread over 16 cycles just
// past the serial engine's ring.
func scheduleOverflowBatch(e *Engine, c Caller, n int) {
	base := e.Now() + serialHorizon
	for j := 0; j < n; j++ {
		e.AtCall(base+uint64(j%16), c, 0, uint64(j), 0)
	}
}

// TestEngineRecordOverflowZeroAllocs is the serial engine's zero-alloc
// contract on the overflow path: once the slab, the freelist and the
// overflow heap are warm, scheduling and running records allocates
// nothing.
func TestEngineRecordOverflowZeroAllocs(t *testing.T) {
	e := New()
	c := &benchCaller{}
	scheduleOverflowBatch(e, c, 256)
	e.Run()
	allocs := testing.AllocsPerRun(50, func() {
		scheduleOverflowBatch(e, c, 256)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("overflow schedule/run allocates %.1f times per batch, want 0", allocs)
	}
}
