package sim

import "math/bits"

// The engine's event queue: a slab-backed calendar queue. Per-cycle
// FIFO bucket chains cover a fixed horizon of cycles; their records live
// in one reusable flat slab, and a (time, seq) min-heap holds events
// beyond the horizon. Scheduling and popping are O(1), allocation-free
// in steady state, and touch only small contiguous arrays — the design
// exists because both a ring of independent per-bucket slices and a
// binary heap of 56-byte events put a cache miss on nearly every push or
// pop (each was once the hottest function in the engine's profile).

// serialHorizon is the Engine's ring span in cycles. Events further out
// go to the overflow heap. In 3D FFT runs, 29% of pushes land 2048 or
// more cycles ahead on the 64k hybrid machine at 128x128x64 (9% on 4k at
// 128^3), but only 1.3% (2.4%) land 16384 or more ahead, and a 2048-cycle
// ring costs 5-14% more simulation time on the 64k run. It is a power of
// two so a bucket index is a mask.
const serialHorizon = 16384

// nilIdx terminates a bucket chain.
const nilIdx = int32(-1)

// noEvent is the earliest-time value of an empty queue.
const noEvent = ^uint64(0)

// slabRec is one bucketed event record in the shared slab. Bucketed
// records carry no time (the bucket's cycle is the time) and no sequence
// number (FIFO order is the chain order), so a record is 24 bytes. who
// is the engine's handler index (0 for a closure, whose function sits in
// the engine's side slab at index a).
type slabRec struct {
	a, b uint64
	next int32 // next record in the same bucket chain, nilIdx at the tail
	who  uint16
	op   uint8
}

// evRec is one far-future event in the overflow heap, which does need
// the absolute time and an insertion sequence for its (time, seq) order.
type evRec struct {
	time uint64
	seq  uint64
	a, b uint64
	who  uint16
	op   uint8
}

// bucket is one cycle's FIFO chain: the slab indices of its first and
// last records, nilIdx when empty. Head and tail share a word so a push
// or pop touches one cache line of the ring.
type bucket struct{ head, tail int32 }

// bucketQueue is a slab-backed calendar queue: per-cycle FIFO bucket
// chains over [base, base+span) plus a (time, seq) min-heap for events
// beyond the horizon. The buckets themselves are flattened into one
// array of (head, tail) pairs plus an occupancy bitmap, and all records
// share one reusable slab with a LIFO freelist: pushing allocates
// nothing and re-makes nothing, it links a recycled slab slot into a
// chain.
//
// Invariants (audited in slabqueue_test.go against a naive reference):
//   - base only moves forward while events are queued; every queued
//     event has time >= base, so each bucket holds events of exactly one
//     cycle at a time and the membership test `t-base <= mask` is safe
//     even when base approaches the top of the uint64 range (t >= base
//     makes the subtraction wrap-free).
//   - scan <= the earliest bucketed cycle, so min scans never walk
//     backwards and never alias a bucket from a later ring lap.
//   - overflow times are >= base+span after every advanceBase, so
//     promotions always complete before a same-cycle direct push can
//     occur, preserving FIFO-within-cycle across the two structures.
type bucketQueue struct {
	bkts []bucket
	// occ has one bit per bucket, set while its chain is non-empty, so
	// finding the next busy cycle skips 64 idle cycles per word.
	occ  []uint64
	mask uint64 // span-1; the span is a power of two >= 64
	recs []slabRec
	free []int32

	base     uint64 // all queued events have time >= base
	scan     uint64 // first cycle possibly holding a bucketed event
	count    int    // bucketed + overflow
	bucketed int
	overflow recHeap
	seq      uint64 // overflow insertion order (heap tiebreak only)
}

// init readies the flattened bucket arrays (empty = nilIdx) for a ring
// of span cycles, which must be a power of two of at least 64.
func (q *bucketQueue) init(span uint64) {
	if span < 64 || span&(span-1) != 0 {
		panic("sim: queue span must be a power of two >= 64")
	}
	q.bkts = make([]bucket, span)
	q.occ = make([]uint64, span/64)
	q.mask = span - 1
	for i := range q.bkts {
		q.bkts[i] = bucket{nilIdx, nilIdx}
	}
}

func (q *bucketQueue) push(t uint64, who uint16, op uint8, a, b uint64) {
	if t-q.base <= q.mask {
		q.pushBucket(t, slabRec{a: a, b: b, next: nilIdx, who: who, op: op})
	} else {
		q.seq++
		q.overflow.push(evRec{time: t, seq: q.seq, a: a, b: b, who: who, op: op})
	}
	q.count++
}

// pushBucket links r into the bucket chain of cycle t, recycling a freed
// slab slot when one exists.
func (q *bucketQueue) pushBucket(t uint64, r slabRec) {
	var idx int32
	if n := len(q.free) - 1; n >= 0 {
		idx = q.free[n]
		q.free = q.free[:n]
	} else {
		idx = int32(len(q.recs))
		q.recs = append(q.recs, slabRec{})
	}
	q.recs[idx] = r
	bkt := t & q.mask
	b := &q.bkts[bkt]
	if b.tail >= 0 {
		q.recs[b.tail].next = idx
	} else {
		b.head = idx
		q.occ[bkt>>6] |= 1 << (bkt & 63)
		if t < q.scan {
			q.scan = t
		}
	}
	b.tail = idx
	q.bucketed++
}

// popFront unlinks and returns the first record of cycle t's bucket,
// which must be non-empty. The slot is freed before the caller runs the
// event, so events the caller schedules for the same cycle link in
// behind the remaining chain.
func (q *bucketQueue) popFront(t uint64) slabRec {
	bkt := t & q.mask
	b := &q.bkts[bkt]
	cur := b.head
	r := q.recs[cur]
	b.head = r.next
	if r.next < 0 {
		b.tail = nilIdx
		q.occ[bkt>>6] &^= 1 << (bkt & 63)
	}
	q.free = append(q.free, cur)
	q.bucketed--
	q.count--
	return r
}

// firstBucketed returns the earliest bucketed cycle; the queue must hold
// a bucketed event. It advances the scan pointer past empty buckets as a
// side effect (safe: scan only skips cycles proven empty).
func (q *bucketQueue) firstBucketed() uint64 {
	// Every bucketed cycle lies in [scan, scan+span), which the ring maps
	// one-to-one onto buckets, so the first busy bucket at or after
	// scan's (wrapping once) is the earliest bucketed cycle.
	c := q.scan
	bkt := c & q.mask
	w := bkt >> 6
	if word := q.occ[w] >> (bkt & 63); word != 0 {
		c += uint64(bits.TrailingZeros64(word))
	} else {
		c += 64 - bkt&63
		last := uint64(len(q.occ) - 1)
		for w = (w + 1) & last; q.occ[w] == 0; w = (w + 1) & last {
			c += 64
		}
		c += uint64(bits.TrailingZeros64(q.occ[w]))
	}
	q.scan = c
	return c
}

// minTime returns the earliest queued event time, or noEvent when the
// queue is empty.
func (q *bucketQueue) minTime() uint64 {
	best := noEvent
	if q.bucketed > 0 {
		best = q.firstBucketed()
	}
	if len(q.overflow) > 0 && q.overflow[0].time < best {
		best = q.overflow[0].time
	}
	return best
}

// min returns the earliest queued event time; ok is false when empty.
func (q *bucketQueue) min() (uint64, bool) {
	if q.count == 0 {
		return 0, false
	}
	return q.minTime(), true
}

// advanceBase moves the ring floor to t (all events below t must already
// be executed) and promotes overflow events that now fit the horizon, in
// (time, seq) order so FIFO-within-cycle is preserved.
func (q *bucketQueue) advanceBase(t uint64) {
	if t <= q.base {
		return
	}
	q.base = t
	if q.scan < t {
		q.scan = t
	}
	// Overflow times are >= base (events below base are already
	// executed), so the wrap-free membership test applies here too.
	for len(q.overflow) > 0 && q.overflow[0].time-q.base <= q.mask {
		r := q.overflow.pop()
		q.pushBucket(r.time, slabRec{a: r.a, b: r.b, next: nilIdx, who: r.who, op: r.op})
	}
}

// rebase moves the ring floor of an empty queue to t in either
// direction; a checkpoint restore uses it to start the queue at the
// restored clock.
func (q *bucketQueue) rebase(t uint64) {
	if q.count != 0 {
		panic("sim: rebase of a non-empty queue")
	}
	q.base, q.scan = t, t
}

// recHeap is a (time, seq) min-heap for overflow events.
type recHeap []evRec

func (h recHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *recHeap) push(r evRec) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *recHeap) pop() evRec {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
