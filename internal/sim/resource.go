package sim

// Port models a hardware resource that can accept one grant per cycle
// (optionally W per cycle), e.g. a cluster's load/store port, a cache
// module's access port, or a DRAM channel command slot. Requests are
// granted in arrival order; a request arriving at cycle t is granted at
// the earliest free slot >= t.
//
// Port does not schedule events itself: callers ask for a grant time and
// schedule their own continuation. This keeps the event count per memory
// operation low (one event per hop instead of handshake pairs).
type Port struct {
	// Width is the number of grants available per cycle (default 1).
	Width uint64
	// nextFree is the earliest cycle with a free slot.
	nextFree uint64
	// used counts grants already issued at nextFree.
	used uint64
	// Busy accumulates total granted slots, for utilization reporting.
	Busy uint64
}

// NewPort returns a port granting width ops per cycle.
func NewPort(width uint64) *Port {
	if width == 0 {
		width = 1
	}
	return &Port{Width: width}
}

// Grant reserves one slot at or after cycle t and returns the cycle at
// which the slot is granted.
func (p *Port) Grant(t uint64) uint64 {
	w := p.Width
	if w == 0 {
		w = 1
	}
	if t > p.nextFree {
		p.nextFree = t
		p.used = 0
	}
	g := p.nextFree
	p.used++
	p.Busy++
	if p.used >= w {
		p.nextFree++
		p.used = 0
	}
	return g
}

// GrantN reserves the n earliest available slots at or after cycle t and
// returns the cycle of the first slot. On a width-1 port the slots are
// consecutive cycles, modeling a burst transfer holding a channel; on a
// wider port up to Width slots share each cycle.
func (p *Port) GrantN(t, n uint64) uint64 {
	if n == 0 {
		return t
	}
	first, _ := p.grantN(t, n)
	return first
}

// GrantNLast reserves the n earliest available slots at or after cycle t
// and returns the cycle of the last slot, the completion time of a
// throughput-limited n-operation segment (e.g. a thread's FLOPs on the
// cluster's shared FPUs).
func (p *Port) GrantNLast(t, n uint64) uint64 {
	if n == 0 {
		return t
	}
	_, last := p.grantN(t, n)
	return last
}

// grantN reserves n >= 1 slots in O(1), leaving the port exactly as n
// successive Grant(t) calls would: the first r slots finish the current
// cycle (r = Width-used, or 1 on a cycle already over-full), and the
// remaining n-r fill whole cycles of Width, the last one partly.
func (p *Port) grantN(t, n uint64) (first, last uint64) {
	w := p.Width
	if w == 0 {
		w = 1
	}
	if t > p.nextFree {
		p.nextFree = t
		p.used = 0
	}
	first = p.nextFree
	p.Busy += n
	r := uint64(1)
	if p.used < w {
		r = w - p.used
	}
	if n < r {
		p.used += n
		return first, first
	}
	k := n - r
	full, rem := k/w, k%w
	p.nextFree = first + 1 + full
	p.used = rem
	if rem == 0 {
		return first, first + full
	}
	return first, first + 1 + full
}

// NextFree returns the earliest cycle at which a new request would be
// granted if issued at cycle t.
func (p *Port) NextFree(t uint64) uint64 {
	if t > p.nextFree {
		return t
	}
	return p.nextFree
}

// Pipe models a fixed-latency, full-bandwidth pipeline stage: every
// request entering at cycle t exits at t+Latency, with at most Width
// entries per cycle.
type Pipe struct {
	Latency uint64
	Port    Port
}

// NewPipe returns a pipe with the given latency and per-cycle width.
func NewPipe(latency, width uint64) *Pipe {
	return &Pipe{Latency: latency, Port: Port{Width: width}}
}

// Traverse returns the exit cycle for a request entering at cycle t.
func (p *Pipe) Traverse(t uint64) uint64 {
	return p.Port.Grant(t) + p.Latency
}
