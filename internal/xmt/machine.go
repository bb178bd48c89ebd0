// Package xmt simulates the Explicit Multi-Threading (XMT) many-core
// architecture of §II-A: a master thread control unit (MTCU) that
// broadcasts parallel sections to clusters of lightweight thread control
// units (TCUs), a prefix-sum unit providing constant-time dynamic thread
// allocation (the no-busy-wait FSM scheme), shared functional units and
// one load/store port per cluster, an interconnection network (internal/
// noc) and hashed shared memory modules (internal/mem).
//
// The simulator is timing-directed and event-driven: workloads submit
// micro-op streams (see Op) whose shared-memory addresses are real, so
// cache, DRAM-channel and NoC contention emerge from the access pattern
// rather than from assumed rates.
package xmt

import (
	"fmt"

	"xmtfft/internal/config"
	"xmtfft/internal/mem"
	"xmtfft/internal/noc"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// Timing constants (cycles); calibration parameters documented in
// DESIGN.md §5.
const (
	// SpawnBroadcastLatency covers the MTCU's broadcast of a parallel
	// section to all TCU clusters; XMT starts all TCUs in the time it
	// takes to start one (§II-A).
	SpawnBroadcastLatency = 24
	// JoinLatency covers TCUs reporting completion and the MTCU
	// resuming serial mode.
	JoinLatency = 24
	// PSLatency is the round-trip latency of a prefix-sum operation;
	// the PS unit combines concurrent requests, so throughput is
	// unbounded (the defining XMT primitive).
	PSLatency = 12
	// FPULatency is the floating-point pipeline depth added to a
	// thread's FLOP segment on top of throughput-limited issue.
	FPULatency = 4
	// ThreadStartOverhead is the per-thread cost of receiving a thread
	// id and branching to the body.
	ThreadStartOverhead = 2
)

// cluster groups the per-cluster shared resources.
type cluster struct {
	fpu sim.Port // width = FPUsPerCluster
	lsu sim.Port // width = LSUsPerCluster
	mdu sim.Port // width = MDUsPerCluster (unused by FFT, kept for ISA)
}

// Machine is one configured XMT processor.
type Machine struct {
	cfg      config.Config
	engine   *sim.Engine
	memory   *mem.System
	network  noc.Network
	clusters []cluster

	// Counters accumulates operation counts across all parallel sections
	// run on this machine. Memory-system and NoC counters (DRAMBytes,
	// NoCPackets, Prefetches, RowHits, RowMisses) are synchronized from
	// their owning subsystems at spawn boundaries rather than tallied
	// here — the subsystem is the single source of truth.
	Counters stats.Counters

	// Tracing state: rec is nil unless a recorder is attached; every
	// emission site is guarded by a nil check so the disabled path costs
	// one predictable branch (DESIGN.md §5). live follows the same
	// contract for the observability layer (see live.go); both observers
	// share the engine's clock hook via installHook.
	rec          *trace.Recorder
	sampler      *epochSampler
	live         *liveMetrics
	pendingLabel string

	// spawn-in-progress state
	prog        Program
	totalTh     int
	nextTh      int
	outstanding int
	lastDone    uint64 // completion time of the latest op (incl. stores)

	// tcus holds the per-TCU execution state, reused across spawns so the
	// record-event scheduling path (sim.Caller) can address TCUs by index
	// without per-event closures.
	tcus []tcuState

	// Resilience state (see fault.go): rnet is non-nil when NoC fault
	// injection wraps the network (m.network aliases it), wd is the
	// installed livelock watchdog, dead marks fail-stopped clusters (nil
	// until the first kill). All nil/zero by default so the fault-free
	// path costs only nil-guarded branches.
	rnet *noc.Reliable
	wd   *sim.Watchdog
	dead []bool

	// onWatchdog, when non-nil, receives the *sim.WatchdogError as a
	// watchdog abort unwinds, before Spawn returns it — the post-mortem
	// hook (see OnWatchdog in fault.go).
	onWatchdog func(*sim.WatchdogError)
}

// New builds a machine for cfg with a fresh memory system and network.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memory, err := mem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	network, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		engine:   sim.New(),
		memory:   memory,
		network:  network,
		clusters: make([]cluster, cfg.Clusters),
	}
	for i := range m.clusters {
		m.clusters[i] = cluster{
			fpu: sim.Port{Width: uint64(cfg.FPUsPerCluster)},
			lsu: sim.Port{Width: uint64(cfg.LSUsPerCluster)},
			mdu: sim.Port{Width: uint64(cfg.MDUsPerCluster)},
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Memory exposes the memory system (for statistics and test inspection).
func (m *Machine) Memory() *mem.System { return m.memory }

// Network exposes the interconnect model.
func (m *Machine) Network() noc.Network { return m.network }

// Now returns the machine's current cycle.
func (m *Machine) Now() uint64 { return m.engine.Now() }

// SimStats reports engine-level execution statistics. Purely diagnostic
// — used by the simulator benchmark records.
type SimStats struct {
	Events uint64 // discrete events executed
}

// SimStats returns the machine's engine statistics so far.
func (m *Machine) SimStats() SimStats {
	return SimStats{Events: m.engine.Processed}
}

// AttachRecorder connects a trace recorder (nil detaches). When the
// recorder has a non-zero Epoch, an epoch sampler is installed as the
// engine's clock-advance hook to snapshot resource utilization every
// Epoch cycles. Attaching or detaching never alters simulated timing:
// the recorder only observes.
func (m *Machine) AttachRecorder(r *trace.Recorder) {
	m.rec = r
	m.pendingLabel = ""
	if r != nil && r.Epoch > 0 {
		m.sampler = newEpochSampler(m, r)
	} else {
		m.sampler = nil
	}
	m.installHook()
}

// Recorder returns the attached trace recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// Section labels the next Spawn in the trace (e.g. "fft r0 p2") and,
// when live metrics are attached, publishes the label as the current
// phase for the /progress endpoint. It is a no-op without an attached
// observer, so workloads may call it unconditionally.
func (m *Machine) Section(name string) {
	if m.rec != nil {
		m.pendingLabel = name
	}
	if m.live != nil {
		m.live.phase.Store(&name)
	}
}

// AdvanceSerial models serial-mode MTCU work of the given length
// (e.g. setup between parallel sections).
func (m *Machine) AdvanceSerial(cycles uint64) {
	m.engine.RunUntil(m.engine.Now() + cycles)
}

// SpawnResult summarizes one parallel section.
type SpawnResult struct {
	Start   uint64 // cycle the spawn was issued
	End     uint64 // cycle serial mode resumed (after join)
	Threads int
	Ops     stats.Counters // counters for this section only
	Util    stats.Util     // resource utilization over the section
}

// Cycles returns the section's duration.
func (r SpawnResult) Cycles() uint64 { return r.End - r.Start }

// tcuState tracks one TCU between events.
type tcuState struct {
	id      int
	cluster int
	tid     int // virtual thread currently executing
	buf     []Op
}

// Spawn executes a parallel section of n threads described by prog,
// running the simulation to completion (until the join), and returns
// timing and counters for the section. Threads are assigned to TCUs
// dynamically: the first wave starts simultaneously on all TCUs after
// the broadcast; each subsequent thread id is obtained by a prefix-sum
// on the thread counter, providing run-time load balancing exactly as
// described in §II-A.
func (m *Machine) Spawn(n int, prog Program) (SpawnResult, error) {
	if n < 0 {
		return SpawnResult{}, fmt.Errorf("xmt: negative thread count %d", n)
	}
	if m.outstanding != 0 || m.prog != nil {
		return SpawnResult{}, fmt.Errorf("xmt: spawn while a parallel section is active")
	}
	alive, err := m.aliveTCUs()
	if err != nil {
		return SpawnResult{}, err
	}
	m.syncMemCounters()
	before := m.Counters
	snap := m.Snapshot()
	start := m.engine.Now()
	m.prog = prog
	m.totalTh = n
	m.nextTh = 0
	m.lastDone = 0
	m.Counters.Spawns++
	if m.rec != nil {
		m.rec.Spawn(start, n, m.pendingLabel)
		m.pendingLabel = ""
	}
	m.emitDeadClusters(start)
	if m.rnet != nil {
		m.rnet.Observer = nocFaultObserver(m.rec)
	}
	if m.wd != nil {
		m.wd.Progress(start)
	}

	avail := m.cfg.TCUs
	if alive != nil {
		avail = len(alive)
	}
	wave := avail
	if n < wave {
		wave = n
	}
	m.outstanding = wave
	need := wave
	if alive != nil && wave > 0 {
		need = alive[wave-1] + 1
	}
	if len(m.tcus) < need {
		m.tcus = append(m.tcus, make([]tcuState, need-len(m.tcus))...)
		for i := range m.tcus {
			m.tcus[i].id = i
			m.tcus[i].cluster = i / m.cfg.TCUsPerCluster
		}
	}
	begin := start + SpawnBroadcastLatency
	for k := 0; k < wave; k++ {
		tcu := k
		if alive != nil {
			tcu = alive[k]
		}
		tid := m.nextTh
		m.nextTh++
		m.engine.AtCall(begin, m, opStart, uint64(tcu), uint64(tid))
	}
	if err := m.runGuarded(func() { m.engine.Run() }); err != nil {
		return SpawnResult{}, err
	}

	end := m.lastDone
	if end < begin {
		end = begin
	}
	end += JoinLatency
	// Advance the clock through the join.
	m.engine.RunUntil(end)
	m.prog = nil

	m.syncMemCounters()
	if m.rec != nil {
		m.rec.Join(end)
	}
	ops := m.Counters
	subtract(&ops, before)
	u := m.UtilizationSince(snap)
	return SpawnResult{Start: start, End: end, Threads: n, Ops: ops,
		Util: stats.Util{FPU: u.FPU, LSU: u.LSU, DRAM: u.DRAM}}, nil
}

// syncMemCounters copies the memory system's and network's cumulative
// tallies into Counters. Called at spawn boundaries so per-section
// deltas (and the machine totals) always agree with the subsystems that
// own the counts.
func (m *Machine) syncMemCounters() {
	m.Counters.DRAMBytes = m.memory.DRAMBytes()
	m.Counters.NoCPackets = m.network.Packets()
	m.Counters.Prefetches = m.memory.Prefetches()
	m.Counters.RowHits, m.Counters.RowMisses = m.memory.RowBufferStats()
	if m.rnet != nil {
		m.Counters.NoCDropped = m.rnet.Drops
		m.Counters.NoCCorrupted = m.rnet.Corrupts
		m.Counters.NoCRetransmits = m.rnet.Retransmits
	}
	m.Counters.ECCCorrected, m.Counters.ECCUncorrectable, m.Counters.SilentFaults = m.memory.ECCStats()
}

// ExtendSpawn adds k virtual threads to the active parallel section
// (XMT's nested single-spawn, sspawn: "program execution flow can also
// be extended through nesting of sspawn commands", §II-A) and returns
// the id of the first new thread. It may only be called from within a
// Program.Thread callback of the active section; the new ids are picked
// up by TCUs through the same prefix-sum allocation path as the
// original thread range.
func (m *Machine) ExtendSpawn(k int) (int, error) {
	if m.prog == nil {
		return 0, fmt.Errorf("xmt: ExtendSpawn outside a parallel section")
	}
	if k <= 0 {
		return 0, fmt.Errorf("xmt: ExtendSpawn count %d must be positive", k)
	}
	first := m.totalTh
	m.totalTh += k
	m.Counters.PSOps++ // the parent's allocation prefix-sum
	return first, nil
}

func subtract(c *stats.Counters, base stats.Counters) {
	c.FPOps -= base.FPOps
	c.ALUOps -= base.ALUOps
	c.Loads -= base.Loads
	c.Stores -= base.Stores
	c.PSOps -= base.PSOps
	c.Threads -= base.Threads
	c.Spawns -= base.Spawns
	c.CacheHits -= base.CacheHits
	c.CacheMisses -= base.CacheMisses
	c.DRAMBytes -= base.DRAMBytes
	c.NoCPackets -= base.NoCPackets
	c.Prefetches -= base.Prefetches
	c.RowHits -= base.RowHits
	c.RowMisses -= base.RowMisses
	c.NoCDropped -= base.NoCDropped
	c.NoCCorrupted -= base.NoCCorrupted
	c.NoCRetransmits -= base.NoCRetransmits
	c.ECCCorrected -= base.ECCCorrected
	c.ECCUncorrectable -= base.ECCUncorrectable
	c.SilentFaults -= base.SilentFaults
}

// runThread generates thread tid's ops and begins executing its first
// segment at the current cycle.
func (m *Machine) runThread(t *tcuState, tid int) {
	m.Counters.Threads++
	t.tid = tid
	if m.rec != nil {
		m.rec.ThreadStart(m.engine.Now(), t.id, t.cluster, tid)
	}
	t.buf = m.prog.Thread(tid, t.buf[:0])
	m.execSegments(t, 0, m.engine.Now()+ThreadStartOverhead)
}

// execSegments executes the op stream starting at index i with the
// thread ready at cycle "now". Each segment (a run of related ops)
// computes its completion and schedules the continuation, so concurrent
// TCUs interleave correctly through the shared resource ports.
func (m *Machine) execSegments(t *tcuState, i int, now uint64) {
	for {
		if i >= len(t.buf) {
			m.threadDone(t, now)
			return
		}
		op := t.buf[i]
		cl := &m.clusters[t.cluster]
		switch op.Kind {
		case OpALU:
			// One ALU per TCU: pure latency, no contention. Cheap enough
			// to fold into the loop without rescheduling.
			m.Counters.ALUOps += uint64(op.N)
			now += uint64(op.N)
			i++
		case OpFLOP:
			m.Counters.FPOps += uint64(op.N)
			done := cl.fpu.GrantNLast(now, uint64(op.N)) + FPULatency
			if m.rec != nil {
				m.rec.Segment(now, done, t.id, trace.SegFLOP)
			}
			i++
			m.schedule(t, i, done)
			return
		case OpPS:
			m.Counters.PSOps++
			if m.rec != nil {
				m.rec.Segment(now, now+PSLatency, t.id, trace.SegPS)
			}
			i++
			m.schedule(t, i, now+PSLatency)
			return
		case OpLoad:
			// Gather the load group. Packet counting happens inside the
			// network (Traverse for the request, Reply for the response):
			// the NoC is the single source of truth for NoCPackets.
			j := i
			start := now
			var done uint64
			for j < len(t.buf) && t.buf[j].Kind == OpLoad {
				addr := t.buf[j].Addr
				issue := cl.lsu.Grant(now)
				dst := mem.HashAddress(addr, m.cfg.MemModules)
				arrive, ok := m.traverse(issue, t.cluster, dst)
				if !ok {
					// Retransmit protocol gave up: escalate to an
					// event-level retry that re-issues the whole group
					// (requests already served in this pass are reissued —
					// the group is the unit of recovery).
					m.schedule(t, i, arrive)
					return
				}
				res := m.memory.AccessAt(dst, arrive, addr, false)
				ret := m.network.Reply(res.Done)
				if ret > done {
					done = ret
				}
				m.Counters.Loads++
				m.countHit(res.Hit)
				if m.rec != nil {
					m.rec.NoC(issue, arrive, t.cluster, dst)
					m.rec.MemAccess(arrive, res.Done, t.id, dst, addr, false, res.Hit)
				}
				recordMemFault(m.rec, res.Done, res.Fault, dst, addr)
				j++
			}
			if m.rec != nil {
				m.rec.Segment(start, done, t.id, trace.SegLoad)
			}
			if m.wd != nil {
				m.wd.Progress(done)
			}
			m.schedule(t, j, done)
			return
		case OpStore:
			// Issue the store group without blocking the thread.
			j := i
			start := now
			issue := now
			for j < len(t.buf) && t.buf[j].Kind == OpStore {
				addr := t.buf[j].Addr
				issue = cl.lsu.Grant(issue)
				dst := mem.HashAddress(addr, m.cfg.MemModules)
				arrive, ok := m.traverse(issue, t.cluster, dst)
				if !ok {
					// Give-up: event-level retry re-issues the store group.
					m.schedule(t, i, arrive)
					return
				}
				res := m.memory.AccessAt(dst, arrive, addr, true)
				if res.Done > m.lastDone {
					m.lastDone = res.Done // join waits for store completion
				}
				m.Counters.Stores++
				m.countHit(res.Hit)
				if m.rec != nil {
					m.rec.NoC(issue, arrive, t.cluster, dst)
					m.rec.MemAccess(arrive, res.Done, t.id, dst, addr, true, res.Hit)
				}
				recordMemFault(m.rec, res.Done, res.Fault, dst, addr)
				j++
			}
			now = issue + 1
			if m.rec != nil {
				m.rec.Segment(start, now, t.id, trace.SegStore)
			}
			i = j
		default:
			panic(fmt.Sprintf("xmt: unknown op kind %d", op.Kind))
		}
	}
}

func (m *Machine) countHit(hit bool) {
	if hit {
		m.Counters.CacheHits++
	} else {
		m.Counters.CacheMisses++
	}
}

// Record-event opcodes dispatched through Call (sim.Caller). Using
// pooled records instead of closures keeps the hot scheduling paths
// allocation-free; see BenchmarkEngineSchedule in internal/sim.
const (
	opStart uint8 = iota // a = TCU index, b = thread id: runThread
	opExec               // a = TCU index, b = op index: execSegments
)

// Call implements sim.Caller, dispatching pooled record events.
func (m *Machine) Call(t uint64, op uint8, a, b uint64) {
	switch op {
	case opStart:
		m.runThread(&m.tcus[a], int(b))
	case opExec:
		m.execSegments(&m.tcus[a], int(b), t)
	default:
		panic(fmt.Sprintf("xmt: unknown event op %d", op))
	}
}

// schedule resumes thread execution at index i at cycle "at".
func (m *Machine) schedule(t *tcuState, i int, at uint64) {
	if at < m.engine.Now() {
		at = m.engine.Now()
	}
	m.engine.AtCall(at, m, opExec, uint64(t.id), uint64(i))
}

// threadDone records completion and allocates the TCU's next thread via
// the prefix-sum unit, or retires the TCU when the id space is
// exhausted (it then waits for the join, causing no busy-wait for any
// other TCU).
func (m *Machine) threadDone(t *tcuState, now uint64) {
	if now > m.lastDone {
		m.lastDone = now
	}
	if m.wd != nil {
		m.wd.Progress(now)
	}
	if m.rec != nil {
		m.rec.ThreadRetire(now, t.id, t.tid)
	}
	if m.nextTh < m.totalTh {
		tid := m.nextTh
		m.nextTh++
		m.Counters.PSOps++
		m.engine.AtCall(now+PSLatency, m, opStart, uint64(t.id), uint64(tid))
		return
	}
	m.outstanding--
}

// DRAMUtilization returns the fraction of total DRAM channel slots busy
// over the machine's lifetime so far.
func (m *Machine) DRAMUtilization() float64 {
	cycles := m.Now()
	if cycles == 0 {
		return 0
	}
	slots := float64(cycles) * float64(m.cfg.DRAMChannels())
	return float64(m.memory.ChannelBusy()) / slots
}

// EnablePrefetch toggles the memory system's next-line prefetcher, one
// of the XMT performance enhancements §II-A mentions. Exposed as a
// switch so its benefit can be measured as an ablation.
func (m *Machine) EnablePrefetch(on bool) { m.memory.Prefetch = on }
