// Package trace is the simulator's cycle-level observability layer: a
// Recorder collects typed events (spawn/join, thread start/retire,
// execution segments, memory accesses, NoC traversals) and periodic
// utilization samples from an instrumented xmt.Machine, and exports them
// as a Chrome trace-event / Perfetto JSON file, a plain-text phase
// summary, or raw series for SVG rendering (viz.UtilizationSVG).
//
// The recorder is strictly passive: it never schedules simulation
// events, so attaching one cannot change a run's cycle counts. The
// machine guards every emission site with a nil check, making the
// disabled path a single predictable branch (see DESIGN.md §5 for the
// zero-overhead contract).
package trace

import (
	"xmtfft/internal/stats"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvSpawn marks the MTCU issuing a parallel section (Start = issue
	// cycle, ID = thread count, Label = section name if provided).
	EvSpawn EventKind = iota
	// EvJoin marks the join completing and serial mode resuming.
	EvJoin
	// EvThreadStart marks a virtual thread beginning on a TCU
	// (TCU, Aux = cluster, ID = thread id).
	EvThreadStart
	// EvThreadRetire marks a virtual thread completing (TCU, ID = thread
	// id).
	EvThreadRetire
	// EvSegment is one dispatched execution segment on a TCU
	// (Start..End, Aux = SegmentKind).
	EvSegment
	// EvMemAccess is one shared-memory word access (Start = arrival at
	// the module, End = completion, TCU, Aux = memory module, ID = byte
	// address, Flags = write/hit).
	EvMemAccess
	// EvNoC is one packet traversal cluster->module (Start = injection,
	// End = arrival, TCU = source cluster, Aux = destination module).
	EvNoC
	// EvFault is one fault-injection or resilience occurrence (Start =
	// End = cycle, Aux = FaultKind, TCU = site, ID = kind-specific info:
	// retry attempt, byte address, or thread count).
	EvFault
)

// Flags for EvMemAccess.
const (
	// FlagWrite marks a store (absent: load).
	FlagWrite uint8 = 1 << iota
	// FlagHit marks a cache hit.
	FlagHit
)

// SegmentKind classifies an EvSegment (mirrors xmt.OpKind for the
// segment-forming kinds; ALU runs are folded into neighbouring segments
// by the machine and are not dispatched separately).
type SegmentKind uint8

const (
	SegFLOP SegmentKind = iota
	SegPS
	SegLoad
	SegStore
)

// FaultKind classifies an EvFault occurrence.
type FaultKind uint8

const (
	// FaultNoCDrop: a request packet was lost in flight (site = source
	// cluster, ID = retry attempt number).
	FaultNoCDrop FaultKind = iota
	// FaultNoCCorrupt: a request packet arrived corrupted and was
	// rejected by the receiver.
	FaultNoCCorrupt
	// FaultNoCGiveUp: the retransmit protocol exhausted its inline
	// attempts and escalated to an event-level retry.
	FaultNoCGiveUp
	// FaultECCCorrected: DRAM single-bit error corrected by SECDED
	// (site = memory module, ID = byte address).
	FaultECCCorrected
	// FaultECCUncorrectable: DRAM double-bit error detected but not
	// correctable.
	FaultECCUncorrectable
	// FaultClusterDead: a cluster is fail-stopped and excluded from
	// thread allocation (site = cluster).
	FaultClusterDead
)

// Name returns the fault kind's display name.
func (k FaultKind) Name() string {
	switch k {
	case FaultNoCDrop:
		return "noc drop"
	case FaultNoCCorrupt:
		return "noc corrupt"
	case FaultNoCGiveUp:
		return "noc give-up"
	case FaultECCCorrected:
		return "ecc corrected"
	case FaultECCUncorrectable:
		return "ecc uncorrectable"
	case FaultClusterDead:
		return "cluster dead"
	}
	return "fault?"
}

// Name returns the segment kind's display name.
func (k SegmentKind) Name() string {
	switch k {
	case SegFLOP:
		return "flop"
	case SegPS:
		return "ps"
	case SegLoad:
		return "load"
	case SegStore:
		return "store"
	}
	return "seg?"
}

// Event is one recorded occurrence. Fields are overloaded per kind (see
// EventKind docs) to keep the struct allocation-free and cache-compact:
// a large traced run records millions of these.
type Event struct {
	Kind  EventKind
	Flags uint8
	TCU   int32
	Aux   int32
	ID    int64
	Start uint64
	End   uint64
	Label string
}

// Sample is one epoch snapshot of machine-wide resource state, taken
// every Recorder.Epoch cycles. Utilization fields are fractions of the
// epoch's available slots (0..1) consumed during the epoch.
type Sample struct {
	Cycle       uint64  // epoch end cycle
	FPU         float64 // cluster FPU occupancy
	LSU         float64 // cluster LSU (NoC injection port) occupancy
	DRAM        float64 // DRAM channel busy fraction
	HitRate     float64 // cache hit rate over the epoch (1 if no accesses)
	Outstanding int     // section work remaining: running + unallocated threads
	NoCPackets  uint64  // packets injected during the epoch
}

// Recorder accumulates a run's events and epoch samples. It is not safe
// for concurrent use; the simulator is single-threaded by design and the
// recorder inherits that discipline.
type Recorder struct {
	// Label names the run in exports (e.g. the configuration name).
	Label string
	// Epoch is the sampling interval in cycles (0 disables sampling).
	Epoch uint64

	Events  []Event
	Samples []Sample

	// Histogram-backed distributions over the epoch samples (percent
	// buckets of width 5) and over per-thread lifetimes (cycles).
	FPUHist         *stats.Histogram
	LSUHist         *stats.Histogram
	DRAMHist        *stats.Histogram
	HitHist         *stats.Histogram
	OutstandingHist *stats.Histogram
	ThreadLife      *stats.Histogram

	// open thread start cycles by TCU, for lifetime accounting.
	openThreads map[int32]uint64
}

// NewRecorder returns a recorder sampling utilization every epoch cycles
// (0 records events only).
func NewRecorder(epoch uint64) *Recorder {
	return &Recorder{
		Epoch:           epoch,
		FPUHist:         stats.NewHistogram(5),
		LSUHist:         stats.NewHistogram(5),
		DRAMHist:        stats.NewHistogram(5),
		HitHist:         stats.NewHistogram(5),
		OutstandingHist: stats.NewHistogram(1),
		ThreadLife:      stats.NewHistogram(16),
		openThreads:     make(map[int32]uint64),
	}
}

// Spawn records a parallel section being issued.
func (r *Recorder) Spawn(cycle uint64, threads int, label string) {
	r.Events = append(r.Events, Event{
		Kind: EvSpawn, Start: cycle, End: cycle, ID: int64(threads), Label: label})
}

// Join records the section's join completing.
func (r *Recorder) Join(cycle uint64) {
	r.Events = append(r.Events, Event{Kind: EvJoin, Start: cycle, End: cycle})
}

// ThreadStart records virtual thread tid beginning on a TCU.
func (r *Recorder) ThreadStart(cycle uint64, tcu, cl, tid int) {
	r.Events = append(r.Events, Event{
		Kind: EvThreadStart, Start: cycle, End: cycle,
		TCU: int32(tcu), Aux: int32(cl), ID: int64(tid)})
	r.openThreads[int32(tcu)] = cycle
}

// ThreadRetire records virtual thread tid completing on a TCU.
func (r *Recorder) ThreadRetire(cycle uint64, tcu, tid int) {
	r.Events = append(r.Events, Event{
		Kind: EvThreadRetire, Start: cycle, End: cycle,
		TCU: int32(tcu), ID: int64(tid)})
	if start, ok := r.openThreads[int32(tcu)]; ok && cycle >= start {
		r.ThreadLife.Observe(cycle - start)
		delete(r.openThreads, int32(tcu))
	}
}

// Segment records one dispatched execution segment.
func (r *Recorder) Segment(start, end uint64, tcu int, kind SegmentKind) {
	r.Events = append(r.Events, Event{
		Kind: EvSegment, Start: start, End: end, TCU: int32(tcu), Aux: int32(kind)})
}

// MemAccess records one shared-memory word access.
func (r *Recorder) MemAccess(arrive, done uint64, tcu, module int, addr uint64, write, hit bool) {
	var f uint8
	if write {
		f |= FlagWrite
	}
	if hit {
		f |= FlagHit
	}
	r.Events = append(r.Events, Event{
		Kind: EvMemAccess, Flags: f, Start: arrive, End: done,
		TCU: int32(tcu), Aux: int32(module), ID: int64(addr)})
}

// NoC records one packet traversal from source cluster to destination
// memory module.
func (r *Recorder) NoC(inject, arrive uint64, srcCluster, dstModule int) {
	r.Events = append(r.Events, Event{
		Kind: EvNoC, Start: inject, End: arrive,
		TCU: int32(srcCluster), Aux: int32(dstModule)})
}

// Fault records one fault-injection or resilience occurrence at the
// given cycle. site identifies the affected component (cluster or
// memory module per kind); info carries the kind-specific payload
// documented on the FaultKind constants.
func (r *Recorder) Fault(cycle uint64, kind FaultKind, site int, info uint64) {
	r.Events = append(r.Events, Event{
		Kind: EvFault, Start: cycle, End: cycle,
		Aux: int32(kind), TCU: int32(site), ID: int64(info)})
}

// AddSample appends one epoch sample and feeds the histogram series.
// Utilization fractions are recorded in percent (clamped to 0..100: a
// port can be granted slightly past an epoch edge, so raw per-epoch
// fractions may marginally exceed 1).
func (r *Recorder) AddSample(s Sample) {
	r.Samples = append(r.Samples, s)
	pct := func(f float64) uint64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 100
		}
		return uint64(f * 100)
	}
	r.FPUHist.Observe(pct(s.FPU))
	r.LSUHist.Observe(pct(s.LSU))
	r.DRAMHist.Observe(pct(s.DRAM))
	r.HitHist.Observe(pct(s.HitRate))
	if s.Outstanding >= 0 {
		r.OutstandingHist.Observe(uint64(s.Outstanding))
	}
}

// section is a spawn..join interval reconstructed from the event stream.
type section struct {
	label   string
	start   uint64
	end     uint64
	threads int64 // declared thread count from the spawn event
	starts  uint64
	mem     uint64
	hits    uint64
	noc     uint64
}

// sections reconstructs spawn..join intervals, attributing intervening
// thread/memory/NoC events to the enclosing section. Events outside any
// section (there are none in well-formed traces) are dropped.
func (r *Recorder) sections() []section {
	var out []section
	var cur *section
	for i := range r.Events {
		ev := &r.Events[i]
		switch ev.Kind {
		case EvSpawn:
			out = append(out, section{label: ev.Label, start: ev.Start, threads: ev.ID})
			cur = &out[len(out)-1]
		case EvJoin:
			if cur != nil {
				cur.end = ev.Start
				cur = nil
			}
		case EvThreadStart:
			if cur != nil {
				cur.starts++
			}
		case EvMemAccess:
			if cur != nil {
				cur.mem++
				if ev.Flags&FlagHit != 0 {
					cur.hits++
				}
			}
		case EvNoC:
			if cur != nil {
				cur.noc++
			}
		}
	}
	return out
}
