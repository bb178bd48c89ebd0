package sim

import (
	"fmt"
	"testing"
)

// Differential test of the serial Engine against a reference engine
// built on a (time, seq) binary min-heap — the engine's ordering
// contract stated as directly as possible. Both run the same randomized
// self-scheduling program (closures and records through two callers,
// same-cycle, near and far-future delays, and absolute targets that one
// event reaches through the overflow heap and a later one directly
// through the ring) in RunUntil chunks, and must execute the same events
// at the same cycles in the same order.

// refEv is one event of the reference engine.
type refEv struct {
	time, seq uint64
	fn        func()
	c         Caller
	op        uint8
	a, b      uint64
}

// refEngine is the executable specification: a (time, seq) heap.
type refEngine struct {
	now, seq  uint64
	processed uint64
	h         []refEv
}

func (r *refEngine) less(i, j int) bool {
	if r.h[i].time != r.h[j].time {
		return r.h[i].time < r.h[j].time
	}
	return r.h[i].seq < r.h[j].seq
}

func (r *refEngine) push(ev refEv) {
	if ev.time < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	ev.seq = r.seq
	r.h = append(r.h, ev)
	for i := len(r.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !r.less(i, p) {
			break
		}
		r.h[i], r.h[p] = r.h[p], r.h[i]
		i = p
	}
}

func (r *refEngine) pop() refEv {
	top := r.h[0]
	n := len(r.h) - 1
	r.h[0] = r.h[n]
	r.h = r.h[:n]
	for i := 0; ; {
		l, rr, small := 2*i+1, 2*i+2, i
		if l < n && r.less(l, small) {
			small = l
		}
		if rr < n && r.less(rr, small) {
			small = rr
		}
		if small == i {
			break
		}
		r.h[i], r.h[small] = r.h[small], r.h[i]
		i = small
	}
	return top
}

func (r *refEngine) Now() uint64                 { return r.now }
func (r *refEngine) Pending() int                { return len(r.h) }
func (r *refEngine) At(t uint64, fn func())      { r.push(refEv{time: t, fn: fn}) }
func (r *refEngine) Schedule(d uint64, f func()) { r.push(refEv{time: r.now + d, fn: f}) }
func (r *refEngine) AtCall(t uint64, c Caller, op uint8, a, b uint64) {
	r.push(refEv{time: t, c: c, op: op, a: a, b: b})
}

func (r *refEngine) step() {
	ev := r.pop()
	r.now = ev.time
	r.processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.c.Call(ev.time, ev.op, ev.a, ev.b)
	}
}

func (r *refEngine) Run() uint64 {
	for len(r.h) > 0 {
		r.step()
	}
	return r.now
}

func (r *refEngine) RunUntil(limit uint64) uint64 {
	for len(r.h) > 0 && r.h[0].time <= limit {
		r.step()
	}
	if r.now < limit && len(r.h) == 0 {
		r.now = limit
	}
	return r.now
}

// scheduler is the engine surface the program drives.
type scheduler interface {
	Now() uint64
	Pending() int
	At(t uint64, fn func())
	Schedule(delay uint64, fn func())
	AtCall(t uint64, c Caller, op uint8, a, b uint64)
	Run() uint64
	RunUntil(limit uint64) uint64
}

// diffProgram is a deterministic self-scheduling workload: every event
// logs itself and, while the event budget lasts, schedules children
// whose count, form and timing derive from the event's id alone.
type diffProgram struct {
	eng    scheduler
	log    []string
	nextID uint64
	budget uint64
	callA  *diffCaller
	callB  *diffCaller
}

type diffCaller struct {
	p   *diffProgram
	tag string
}

func (c *diffCaller) Call(t uint64, op uint8, a, b uint64) {
	if t != c.p.eng.Now() {
		panic(fmt.Sprintf("record fired at %d with clock %d", t, c.p.eng.Now()))
	}
	c.p.fire(fmt.Sprintf("%s%d", c.tag, op), a, b)
}

func newDiffProgram(eng scheduler, budget uint64) *diffProgram {
	p := &diffProgram{eng: eng, budget: budget}
	p.callA = &diffCaller{p: p, tag: "A"}
	p.callB = &diffCaller{p: p, tag: "B"}
	return p
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// target picks a child's firing cycle from the current clock.
func (p *diffProgram) target(h uint64) uint64 {
	now := p.eng.Now()
	switch h % 8 {
	case 0, 1:
		return now // same cycle: FIFO behind everything already queued
	case 2, 3:
		return now + 1 + h>>8%40
	case 4:
		return now + serialHorizon - 3 + h>>8%6 // straddles the ring edge
	case 5:
		return now + 3*serialHorizon + h>>8%50 // deep overflow
	case 6:
		// A shared absolute cycle per 4096-cycle block: events scheduled
		// early in the block reach it through the overflow heap, later
		// ones directly through the ring, and they must still fire in
		// scheduling order.
		return (now/4096+1)*4096 + serialHorizon - 2048
	default:
		return now + 200 + h>>8%300
	}
}

// schedule queues one child with id, in the form h selects.
func (p *diffProgram) schedule(id, h uint64) {
	t := p.target(h)
	switch h >> 20 % 4 {
	case 0:
		p.eng.At(t, func() { p.fire("F", id, 0) })
	case 1:
		p.eng.Schedule(t-p.eng.Now(), func() { p.fire("S", id, 0) })
	case 2:
		p.eng.AtCall(t, p.callA, uint8(h>>24%4), id, h>>32)
	default:
		p.eng.AtCall(t, p.callB, uint8(h>>24%4), id, h>>32)
	}
}

func (p *diffProgram) fire(kind string, id, b uint64) {
	p.log = append(p.log, fmt.Sprintf("%d:%s:%d:%d", p.eng.Now(), kind, id, b))
	h := mix(id)
	for k := uint64(0); k < h%4 && p.nextID < p.budget; k++ {
		p.nextID++
		p.schedule(p.nextID, mix(h+k))
	}
}

// seed queues n roots from outside any event.
func (p *diffProgram) seed(n int, salt uint64) {
	for i := 0; i < n && p.nextID < p.budget; i++ {
		p.nextID++
		p.schedule(p.nextID, mix(salt*1000003+uint64(i)))
	}
}

func TestEngineMatchesHeapReference(t *testing.T) {
	starts := []uint64{0, 1 << 40, ^uint64(0) - 1<<28}
	for _, start := range starts {
		for _, variant := range []string{"zero-value", "new", "rewound"} {
			t.Run(fmt.Sprintf("start=%d/%s", start, variant), func(t *testing.T) {
				e := New()
				switch variant {
				case "zero-value":
					e = &Engine{}
				case "rewound":
					// Run ahead first, so the restore below moves the
					// ring floor backwards.
					e.At(start+5*serialHorizon+3, func() {})
					e.Run()
				}
				ref := &refEngine{}
				if start != 0 || variant == "rewound" {
					// A restored engine starts its ring at the captured clock.
					if err := e.RestoreState(EngineState{Now: start, Seq: 7, Processed: 99}); err != nil {
						t.Fatal(err)
					}
					ref.now, ref.seq, ref.processed = start, 7, 99
				}
				got, want := newDiffProgram(e, 30000), newDiffProgram(ref, 30000)
				for chunk := uint64(0); chunk < 12; chunk++ {
					got.seed(40, chunk)
					want.seed(40, chunk)
					limit := start + chunk*9000 + mix(chunk)%5000
					if g, w := e.RunUntil(limit), ref.RunUntil(limit); g != w {
						t.Fatalf("chunk %d: RunUntil(%d) = %d, reference %d", chunk, limit, g, w)
					}
					compareDiff(t, e, ref, got, want)
				}
				if g, w := e.Run(), ref.Run(); g != w {
					t.Fatalf("Run = %d, reference %d", g, w)
				}
				compareDiff(t, e, ref, got, want)
				if e.seq != ref.seq {
					t.Fatalf("Seq = %d, reference %d", e.seq, ref.seq)
				}
				if len(got.log) < 20000 {
					t.Fatalf("program executed only %d events", len(got.log))
				}
			})
		}
	}
}

func compareDiff(t *testing.T, e *Engine, ref *refEngine, got, want *diffProgram) {
	t.Helper()
	if e.Now() != ref.now || e.Pending() != len(ref.h) || e.Processed != ref.processed {
		t.Fatalf("now/pending/processed = %d/%d/%d, reference %d/%d/%d",
			e.Now(), e.Pending(), e.Processed, ref.now, len(ref.h), ref.processed)
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("executed %d events, reference %d", len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("event %d = %s, reference %s", i, got.log[i], want.log[i])
		}
	}
}
