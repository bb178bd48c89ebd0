package xmt

// Sharded execution of the XMT machine on sim.ParallelEngine: one shard
// per cluster. Everything a shard touches during a window is
// cluster-local — its ports and TCU states, its counters and trace
// recorder. Everything behind the NoC — the network's switch state and
// the memory system's caches and DRAM channels — is coordinator state,
// touched only between windows, in deterministic barrier merge order.
//
// Interactions that cross the real machine's NoC or prefix-sum unit
// become boundary messages, one per *group*, not one per request:
//
//	msgMemGroup   a whole load group or store group leaving a cluster
//	              LSU; the per-request payload (address, issue cycle)
//	              rides in the sending shard's request buffer, so the
//	              message itself is just (offset, count)
//	msgMemRetry   re-issue of one request whose NoC retransmit protocol
//	              gave up (fault injection only)
//	msgThreadDone TCU asking the prefix-sum unit for its next thread id
//
// The coordinator (the engine's barrier function) consumes each group
// inline: it walks the requests in issue order, traverses the NoC,
// performs the memory access and computes the reply arrival — exactly
// the legacy engine's memory path — then schedules a single resume
// event on the requesting shard. This is what makes the sharded
// engine's per-event cost comparable to the legacy engine's: an earlier
// design bounced every request through module-owner shards and every
// reply through its own message, which tripled wall-clock purely on
// message transport (1.86M messages for a run with 0.9M accesses). The
// trade, documented in DESIGN.md §7: memory-system model work is
// serialized at the coordinator, so workers parallelize only
// cluster-side work (thread generation, FLOP/ALU segments).
//
// The lookahead window is min(NoC one-way latency, PSLatency), so every
// cross-shard effect lands at or after the barrier that delivers it —
// the conservative-PDES safety condition. Because the window sequence,
// per-shard event order and barrier merge order are all deterministic,
// a run's cycle counts, counters and trace streams are bit-identical
// for every worker count, which the differential tests assert.
//
// Programs executed in sharded mode must be safe for concurrent
// Program.Thread calls (see Program); the FFT kernels are, by the PRAM
// independence contract.

import (
	"fmt"
	"runtime"

	"xmtfft/internal/config"
	"xmtfft/internal/mem"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// Boundary message kinds (sim.Message.Kind).
const (
	// msgMemGroup: A = offset into the sending shard's request buffer,
	// B = request count, C = segment start cycle<<1 | write bit,
	// D = TCU id. A load group parks its thread until the coordinator
	// schedules the resume; a store group does not.
	msgMemGroup uint8 = iota
	// msgMemRetry: A = offset of the single re-issued request in the
	// sending shard's request buffer, B = write bit, D = TCU id.
	msgMemRetry
	// msgThreadDone: A = completion cycle, D = TCU id. (Completion may be
	// later than Message.Time when trailing ALU ops ran inline.)
	msgThreadDone
)

// Shard event opcodes.
const (
	// sopStart: a = local TCU index, b = thread id.
	sopStart uint8 = iota
	// sopResume: a = local TCU index, b = op index to resume at.
	sopResume
	// sopRetransmit: a = index into shardedMachine.retries. Fires on the
	// source shard after the retransmit protocol gave up on a request;
	// re-emits the request with the event's cycle as the new issue time,
	// keeping the event loop turning (so a pathological loss rate becomes
	// a watchdog-detectable livelock, not a spin).
	sopRetransmit
)

// memReq is one memory request in a shard's request buffer: the payload
// a msgMemGroup/msgMemRetry message refers to by offset. Requests are
// appended by shard events during a window and consumed by the
// coordinator at the barrier ending that same window, which then resets
// every buffer — the engine's window/barrier alternation is the only
// synchronization needed (the same contract retries uses, reversed).
type memReq struct {
	addr  uint64
	issue uint64
}

// shardTCU is one TCU's execution state on its owning shard.
type shardTCU struct {
	id    int // global TCU id
	local int // index within the owning shard (id % TCUsPerCluster)
	tid   int
	buf   []Op
	// Load-group wait state: the thread parks after emitting its load
	// group and resumes at op index i when the coordinator has served
	// every request. waiting counts requests stuck in the retransmit
	// retry path (always zero without NoC fault injection).
	i        int
	segStart uint64
	waiting  int
	maxRet   uint64
}

// machineShard is one cluster; it implements sim.ShardHandler. Fields
// are touched only by the shard's own events during windows and by the
// coordinator between windows.
type machineShard struct {
	sm *shardedMachine
	id int // cluster index == shard index

	fpu, lsu, mdu sim.Port
	tcus          []shardTCU
	reqs          []memReq // request payloads for this window's groups

	counters stats.Counters
	lastDone uint64          // thread and store completions on this shard
	rec      *trace.Recorder // per-spawn recorder; nil when not tracing
}

// shardedMachine drives a Machine on the windowed parallel engine.
type shardedMachine struct {
	m      *Machine
	eng    *sim.ParallelEngine
	shards []*machineShard
	// tcuShard/tcuLocal map a global TCU id to its owning shard and
	// local index without the div/mod pair tcuOf used to pay on every
	// barrier message (the divisor is not a compile-time constant, so
	// the hardware division showed up in the merge-path profile).
	tcuShard []int32
	tcuLocal []int32
	window   uint64
	now      uint64
	psOps    uint64 // cumulative thread re-allocation prefix-sums

	// coordRec collects coordinator-side trace events (NoC traversals
	// and memory accesses) during a spawn; merged with the shard
	// recorders at the join.
	coordRec *trace.Recorder

	// retries holds escalated (give-up) memory requests awaiting their
	// sopRetransmit events. Appended only by the coordinator between
	// windows and read by shard events during windows, so the engine's
	// barrier ordering is the only synchronization needed.
	retries []retryRec
}

// retryRec is one escalated memory request: the payload its
// sopRetransmit event re-issues with a fresh issue cycle.
type retryRec struct {
	addr  uint64
	tcu   uint64
	write bool
}

// Shards implements sim.Partition: one shard per cluster.
func (sm *shardedMachine) Shards() int { return sm.m.cfg.Clusters }

// Lookahead implements sim.Partition: the minimum delay between a
// cross-shard message and its earliest effect. Requests and replies
// cross the NoC (>= one-way latency); thread re-allocation crosses the
// prefix-sum unit (PSLatency). The window is their minimum.
func (sm *shardedMachine) Lookahead() uint64 { return sm.window }

// NewParallel builds a machine that simulates on the sharded parallel
// engine with the given worker count (<= 0 selects GOMAXPROCS; 1 is the
// serial driver of the same windowed execution, useful as the reference
// side of differential tests). Simulation results are identical for
// every worker count; only wall-clock time changes.
func NewParallel(cfg config.Config, workers int) (*Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sm := &shardedMachine{m: m}
	sm.window = m.network.Latency()
	if sm.window > PSLatency {
		sm.window = PSLatency
	}
	if sm.window == 0 {
		return nil, fmt.Errorf("xmt: configuration %q has zero NoC latency", cfg.Name)
	}
	sm.eng = sim.NewParallelEngine(sm, workers)
	sm.eng.SetBarrier(sm.onBarrier)
	sm.shards = make([]*machineShard, cfg.Clusters)
	for i := range sm.shards {
		sh := &machineShard{
			sm:   sm,
			id:   i,
			fpu:  sim.Port{Width: uint64(cfg.FPUsPerCluster)},
			lsu:  sim.Port{Width: uint64(cfg.LSUsPerCluster)},
			mdu:  sim.Port{Width: uint64(cfg.MDUsPerCluster)},
			tcus: make([]shardTCU, cfg.TCUsPerCluster),
		}
		for j := range sh.tcus {
			sh.tcus[j].id = i*cfg.TCUsPerCluster + j
			sh.tcus[j].local = j
		}
		sm.shards[i] = sh
		sm.eng.SetHandler(i, sh)
	}
	sm.tcuShard = make([]int32, cfg.TCUs)
	sm.tcuLocal = make([]int32, cfg.TCUs)
	for t := 0; t < cfg.TCUs; t++ {
		sm.tcuShard[t] = int32(t / cfg.TCUsPerCluster)
		sm.tcuLocal[t] = int32(t % cfg.TCUsPerCluster)
	}
	m.par = sm
	return m, nil
}

// advance models serial-mode MTCU work between parallel sections.
func (sm *shardedMachine) advance(cycles uint64) {
	sm.eng.AdvanceTo(sm.now + cycles)
	sm.now += cycles
}

// tcuOf returns the shard and local index of a global TCU id.
func (sm *shardedMachine) tcuOf(tcu int) (*machineShard, int) {
	return sm.shards[sm.tcuShard[tcu]], int(sm.tcuLocal[tcu])
}

// spawn runs one parallel section to completion on the sharded engine.
// Validation (n >= 0, no active section) happened in Machine.Spawn.
func (sm *shardedMachine) spawn(n int, prog Program) (SpawnResult, error) {
	m := sm.m
	alive, err := m.aliveTCUs()
	if err != nil {
		return SpawnResult{}, err
	}
	m.syncMemCounters()
	before := m.Counters
	snap := m.Snapshot()
	start := sm.now
	m.prog = prog
	m.totalTh = n
	m.nextTh = 0
	m.Counters.Spawns++
	if m.rec != nil {
		m.rec.Spawn(start, n, m.pendingLabel)
		m.pendingLabel = ""
		sm.coordRec = trace.NewRecorder(0)
		for _, sh := range sm.shards {
			sh.rec = trace.NewRecorder(0)
		}
	}
	m.emitDeadClusters(start)
	if m.rnet != nil {
		m.rnet.Observer = nocFaultObserver(sm.coordRec)
	}
	if m.wd != nil {
		m.wd.Progress(start)
	}
	sm.retries = sm.retries[:0]
	for _, sh := range sm.shards {
		sh.lastDone = 0
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
	begin := start + SpawnBroadcastLatency
	for k := 0; k < wave; k++ {
		tcu := k
		if alive != nil {
			tcu = alive[k]
		}
		tid := m.nextTh
		m.nextTh++
		sh, local := sm.tcuOf(tcu)
		sm.eng.Shard(sh.id).At(begin, sopStart, uint64(local), uint64(tid))
	}
	if err := m.runGuarded(func() { sm.eng.Run() }); err != nil {
		return SpawnResult{}, err
	}

	end := begin
	for _, sh := range sm.shards {
		if sh.lastDone > end {
			end = sh.lastDone
		}
	}
	end += JoinLatency
	// Advance every shard's clock through the join.
	sm.eng.AdvanceTo(end)
	sm.now = end
	m.prog = nil

	sm.reduceCounters()
	m.syncMemCounters()
	if m.rec != nil {
		parts := make([]*trace.Recorder, 0, len(sm.shards)+1)
		for _, sh := range sm.shards {
			parts = append(parts, sh.rec)
			sh.rec = nil
		}
		parts = append(parts, sm.coordRec)
		sm.coordRec = nil
		m.rec.MergeFrom(parts...)
		m.rec.Join(end)
	}
	ops := m.Counters
	subtract(&ops, before)
	u := m.UtilizationSince(snap)
	return SpawnResult{Start: start, End: end, Threads: n, Ops: ops,
		Util: stats.Util{FPU: u.FPU, LSU: u.LSU, DRAM: u.DRAM}}, nil
}

// reduceCounters rebuilds the machine's shard-summed counters. The
// shard counters are cumulative over the machine's lifetime, so this is
// a pure deterministic reduction, valid whenever the shards are parked.
// (Cache hits and misses live in the requesting cluster's shard
// counters; the coordinator credits them while serving groups.)
func (sm *shardedMachine) reduceCounters() {
	c := &sm.m.Counters
	c.FPOps, c.ALUOps, c.Loads, c.Stores, c.Threads = 0, 0, 0, 0, 0
	c.CacheHits, c.CacheMisses = 0, 0
	c.PSOps = sm.psOps
	for _, sh := range sm.shards {
		c.FPOps += sh.counters.FPOps
		c.ALUOps += sh.counters.ALUOps
		c.Loads += sh.counters.Loads
		c.Stores += sh.counters.Stores
		c.Threads += sh.counters.Threads
		c.PSOps += sh.counters.PSOps
		c.CacheHits += sh.counters.CacheHits
		c.CacheMisses += sh.counters.CacheMisses
	}
}

// onBarrier is the coordinator: it receives every window's messages in
// deterministic (time, shard, send order) order and serves them inline.
// It is the only place the shared network and memory objects are
// touched, so their internal state (hybrid switch ports, cache sets,
// DRAM channel timing, packet counters) needs no locking.
func (sm *shardedMachine) onBarrier(msgs []sim.Message) {
	m := sm.m
	for _, msg := range msgs {
		switch msg.Kind {
		case msgMemGroup:
			sh := sm.shards[msg.Src]
			recs := sh.reqs[msg.A : msg.A+msg.B]
			if msg.C&1 == 1 {
				sm.storeGroup(sh, recs, int(msg.D))
			} else {
				sm.loadGroup(sh, recs, msg.C>>1, int(msg.D))
			}
		case msgMemRetry:
			sh := sm.shards[msg.Src]
			sm.memRetry(sh, sh.reqs[msg.A], msg.B == 1, int(msg.D))
		case msgThreadDone:
			// The prefix-sum unit combines concurrent requests, so every
			// retiring TCU gets the next id in deterministic merge order
			// with constant latency — the no-busy-wait allocation scheme.
			if m.wd != nil {
				m.wd.Progress(msg.A)
			}
			if m.nextTh < m.totalTh {
				tid := m.nextTh
				m.nextTh++
				sm.psOps++
				sh, local := sm.tcuOf(int(msg.D))
				sm.eng.Shard(sh.id).At(msg.A+PSLatency, sopStart, uint64(local), uint64(tid))
			} else {
				m.outstanding--
			}
		default:
			panic(fmt.Sprintf("xmt: unknown boundary message kind %d", msg.Kind))
		}
	}
	// Every request appended during the finished window has now been
	// consumed (a request is always paired with a message in the same
	// event, and the barrier receives all of a window's messages), so
	// the senders' buffers reset for the next window.
	for _, msg := range msgs {
		sm.shards[msg.Src].reqs = sm.shards[msg.Src].reqs[:0]
	}
}

// serveRequest performs the coordinator side of one memory request —
// NoC traversal, module access, counters, tracing — mirroring the
// legacy engine's per-request path — and returns the cycle the access
// completes. ok=false means the retransmit protocol gave up; the request
// has been queued for an event-level retry on the source shard and done
// is meaningless.
func (sm *shardedMachine) serveRequest(sh *machineShard, r memReq, write bool, tcu int) (done uint64, ok bool) {
	m := sm.m
	dst := mem.HashAddress(r.addr, m.cfg.MemModules)
	arrive, ok := m.traverse(r.issue, sh.id, dst)
	if !ok {
		// Give-up: schedule the event-level retry on the source shard,
		// which re-issues the request with a fresh issue cycle.
		at := arrive
		if now := sm.eng.Now(); at < now {
			at = now
		}
		sm.eng.Shard(sh.id).At(at, sopRetransmit, uint64(len(sm.retries)), 0)
		sm.retries = append(sm.retries, retryRec{addr: r.addr, tcu: uint64(tcu), write: write})
		return 0, false
	}
	res := m.memory.Access(arrive, r.addr, write)
	if res.Hit {
		sh.counters.CacheHits++
	} else {
		sh.counters.CacheMisses++
	}
	if sm.coordRec != nil {
		sm.coordRec.NoC(r.issue, arrive, sh.id, dst)
		sm.coordRec.MemAccess(arrive, res.Done, tcu, dst, r.addr, write, res.Hit)
	}
	recordMemFault(sm.coordRec, res.Done, res.Fault, dst, r.addr)
	return res.Done, true
}

// loadGroup serves a parked thread's load group: every request is
// traversed and accessed in issue order, and the thread resumes when
// the last reply is in (immediately computable unless a request
// escalated into the retry path).
func (sm *shardedMachine) loadGroup(sh *machineShard, recs []memReq, segStart uint64, tcu int) {
	m := sm.m
	tc := &sh.tcus[sm.tcuLocal[tcu]]
	tc.segStart = segStart
	done := uint64(0)
	pending := 0
	for _, r := range recs {
		acc, ok := sm.serveRequest(sh, r, false, tcu)
		if !ok {
			pending++
			continue
		}
		if ret := m.network.Reply(acc); ret > done {
			done = ret
		}
	}
	tc.maxRet = done
	tc.waiting = pending
	if pending == 0 {
		sm.finishLoadGroup(sh, tc)
	}
}

// finishLoadGroup records the load segment and schedules the parked
// thread's resume at the last reply arrival.
func (sm *shardedMachine) finishLoadGroup(sh *machineShard, tc *shardTCU) {
	if sh.rec != nil {
		sh.rec.Segment(tc.segStart, tc.maxRet, tc.id, trace.SegLoad)
	}
	if sm.m.wd != nil {
		sm.m.wd.Progress(tc.maxRet)
	}
	sm.eng.Shard(sh.id).At(tc.maxRet, sopResume, uint64(tc.local), uint64(tc.i))
}

// storeGroup serves a store group; the issuing thread already continued
// (stores do not block), so only the join's completion bound advances.
func (sm *shardedMachine) storeGroup(sh *machineShard, recs []memReq, tcu int) {
	for _, r := range recs {
		done, ok := sm.serveRequest(sh, r, true, tcu)
		if !ok {
			continue
		}
		if done > sh.lastDone {
			sh.lastDone = done // join waits for store completion
		}
	}
}

// memRetry serves a single re-issued request from the retransmit path.
func (sm *shardedMachine) memRetry(sh *machineShard, r memReq, write bool, tcu int) {
	done, ok := sm.serveRequest(sh, r, write, tcu)
	if !ok {
		return // escalated again; a fresh retry event is scheduled
	}
	if write {
		if done > sh.lastDone {
			sh.lastDone = done
		}
		return
	}
	tc := &sh.tcus[sm.tcuLocal[tcu]]
	if ret := sm.m.network.Reply(done); ret > tc.maxRet {
		tc.maxRet = ret
	}
	tc.waiting--
	if tc.waiting == 0 {
		sm.finishLoadGroup(sh, tc)
	}
}

// Event implements sim.ShardHandler.
func (sh *machineShard) Event(s *sim.Shard, t uint64, op uint8, a, b uint64) {
	switch op {
	case sopStart:
		sh.runThread(s, &sh.tcus[a], int(b), t)
	case sopResume:
		sh.exec(s, &sh.tcus[a], int(b), t)
	case sopRetransmit:
		r := sh.sm.retries[a]
		off := len(sh.reqs)
		sh.reqs = append(sh.reqs, memReq{addr: r.addr, issue: t})
		var wbit uint64
		if r.write {
			wbit = 1
		}
		s.Send(msgMemRetry, uint64(off), wbit, 0, r.tcu)
	default:
		panic(fmt.Sprintf("xmt: unknown shard event op %d", op))
	}
}

// runThread generates thread tid's ops and begins executing its first
// segment. Program.Thread is called from worker goroutines here — the
// concurrency contract is documented on Program.
func (sh *machineShard) runThread(s *sim.Shard, tc *shardTCU, tid int, now uint64) {
	sh.counters.Threads++
	tc.tid = tid
	if sh.rec != nil {
		sh.rec.ThreadStart(now, tc.id, sh.id, tid)
	}
	tc.buf = sh.sm.m.prog.Thread(tid, tc.buf[:0])
	sh.exec(s, tc, 0, now+ThreadStartOverhead)
}

// exec is the sharded counterpart of Machine.execSegments: it executes
// the op stream from index i with the thread ready at cycle now,
// emitting one boundary message per load/store group where the legacy
// path called into the network and memory system directly.
func (sh *machineShard) exec(s *sim.Shard, tc *shardTCU, i int, now uint64) {
	local := uint64(tc.local)
	for {
		if i >= len(tc.buf) {
			sh.threadDone(s, tc, now)
			return
		}
		op := tc.buf[i]
		switch op.Kind {
		case OpALU:
			sh.counters.ALUOps += uint64(op.N)
			now += uint64(op.N)
			i++
		case OpFLOP:
			sh.counters.FPOps += uint64(op.N)
			done := sh.fpu.GrantNLast(now, uint64(op.N)) + FPULatency
			if sh.rec != nil {
				sh.rec.Segment(now, done, tc.id, trace.SegFLOP)
			}
			i++
			s.At(done, sopResume, local, uint64(i))
			return
		case OpPS:
			sh.counters.PSOps++
			if sh.rec != nil {
				sh.rec.Segment(now, now+PSLatency, tc.id, trace.SegPS)
			}
			i++
			s.At(now+PSLatency, sopResume, local, uint64(i))
			return
		case OpLoad:
			// Emit the load group as one boundary message (payload in the
			// shard's request buffer) and park the thread; the coordinator
			// serves the group at the barrier and schedules the resume.
			// The LSU issue grants are cluster-local state, charged now.
			j := i
			off := len(sh.reqs)
			for j < len(tc.buf) && tc.buf[j].Kind == OpLoad {
				sh.reqs = append(sh.reqs,
					memReq{addr: tc.buf[j].Addr, issue: sh.lsu.Grant(now)})
				sh.counters.Loads++
				j++
			}
			tc.i = j
			s.Send(msgMemGroup, uint64(off), uint64(len(sh.reqs)-off), now<<1, uint64(tc.id))
			return
		case OpStore:
			// Issue the store group without blocking the thread.
			j := i
			start := now
			issue := now
			off := len(sh.reqs)
			for j < len(tc.buf) && tc.buf[j].Kind == OpStore {
				issue = sh.lsu.Grant(issue)
				sh.reqs = append(sh.reqs,
					memReq{addr: tc.buf[j].Addr, issue: issue})
				sh.counters.Stores++
				j++
			}
			s.Send(msgMemGroup, uint64(off), uint64(len(sh.reqs)-off), 1, uint64(tc.id))
			now = issue + 1
			if sh.rec != nil {
				sh.rec.Segment(start, now, tc.id, trace.SegStore)
			}
			i = j
		default:
			panic(fmt.Sprintf("xmt: unknown op kind %d", op.Kind))
		}
	}
}

// threadDone retires the thread and asks the prefix-sum unit (via the
// coordinator) for the TCU's next thread id.
func (sh *machineShard) threadDone(s *sim.Shard, tc *shardTCU, now uint64) {
	if now > sh.lastDone {
		sh.lastDone = now
	}
	if sh.rec != nil {
		sh.rec.ThreadRetire(now, tc.id, tc.tid)
	}
	s.Send(msgThreadDone, now, 0, 0, uint64(tc.id))
}
