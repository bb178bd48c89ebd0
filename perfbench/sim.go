package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/model"
	"xmtfft/internal/noc"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// simTol bounds the relative RMS error of the simulated transform
// against fft.Plan3D: the tolerance the core package's tests hold the
// fine-grained kernel to in complex64.
const simTol = 5e-4

// simRun is what one simulated transform produced.
type simRun struct {
	wall     float64 // host seconds
	cpu      float64 // host CPU seconds of the process
	run      stats.Run
	counters stats.Counters
	events   uint64
	digest   string
	util     xmt.Utilization
}

// phaseSpans accumulates, per phase class (fft, rotate, twiddle), the
// host CPU time between consecutive AfterPhase calls and the phases'
// simulated cycles and operations.
type phaseSpans struct {
	last   float64 // process CPU seconds at the previous boundary
	hostS  map[string]float64
	cycles map[string]uint64
	ops    map[string]uint64
}

func newPhaseSpans() *phaseSpans {
	return &phaseSpans{hostS: map[string]float64{}, cycles: map[string]uint64{}, ops: map[string]uint64{}}
}

func (p *phaseSpans) afterPhase(_ int, partial *stats.Run) error {
	now := cpuSeconds()
	ph := partial.Phases[len(partial.Phases)-1]
	class := phaseClass(ph.Name)
	p.hostS[class] += now - p.last
	p.cycles[class] += ph.Cycles
	p.ops[class] += usefulOps(ph.Ops)
	p.last = now
	return nil
}

// phaseClass maps core's phase names ("twiddle init r0", "twiddle decay
// r0 p1", "fft r0 p1", "rotate r0") to their class.
func phaseClass(name string) string {
	class, _, _ := strings.Cut(name, " ")
	return class
}

// usefulOps counts model-level operations, as the simulator's own bench
// record does.
func usefulOps(c stats.Counters) uint64 {
	return c.Loads + c.Stores + c.FPOps + c.ALUOps + c.PSOps + c.Threads
}

// simulate runs the forward transform on m; spans, when non-nil, is
// driven from the AfterPhase hook.
func simulate(m *xmt.Machine, tr *core.Transform, spans *phaseSpans) (simRun, error) {
	var ctl core.RunControl
	if spans != nil {
		ctl.AfterPhase = spans.afterPhase
	}
	before := m.Snapshot()
	cpu0, start := cpuSeconds(), time.Now()
	if spans != nil {
		spans.last = cpu0
	}
	run, err := tr.RunCheckpointed(fft.Forward, ctl)
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return simRun{}, fmt.Errorf("simulate: %w", err)
	}
	return simRun{wall: wall, cpu: cpu, run: run, counters: m.Counters, events: m.SimStats().Events,
		digest: digest(tr.Data), util: m.UtilizationSince(before)}, nil
}

// runSim simulates the workload's transform once on the set-up machine
// and checks it against fft.Plan3D. The traced run simulates it again on
// a fresh machine under the phase hook, the NoC delay histogram and a
// CPU profile, and requires the same cycles, counters and output.
func runSim(e *env, w workload, seed int64, traced bool, t *tally, rt *runtimeDelta, end, layer metricSet, details map[string]any) error {
	d := w.simDims
	in := simInput(seed, e.tr.N())
	copy(e.tr.Data, in)
	rt.begin()
	u, err := simulate(e.m, e.tr, nil)
	rt.end()
	if err != nil {
		return err
	}
	ref := append([]complex64(nil), in...)
	p3, err := fft.CachedPlan3D[complex64](d[0], d[1], d[2])
	if err != nil {
		return err
	}
	if err := p3.Transform(ref, fft.Forward); err != nil {
		return err
	}
	rel := relErr(e.tr.Data, ref)
	t.check(rel <= simTol, "sim: output differs from fft.Plan3D by %.3g (limit %g)", rel, simTol)
	e.m, e.tr = nil, nil

	mp, err := model.Project3DDims(e.cfg, d[0], d[1], d[2])
	if err != nil {
		return err
	}
	cycles := float64(u.run.TotalCycles())
	modelCycles := toCycles(mp.Overall.TimeSec)
	end.set("sim_cpu_s", u.cpu, "s")
	end.set("model_sim_gap", gap(modelCycles, cycles), "ratio")
	details["sim"] = map[string]any{"config": e.cfg.Name, "dims": d, "cycles": cycles, "events": u.events,
		"model_cycles": modelCycles, "rel_err": rel, "digest": u.digest, "wall_s": u.wall, "cpu_s": u.cpu}
	if !traced {
		return nil
	}

	debug.FreeOSMemory()
	m, err := xmt.New(e.cfg)
	if err != nil {
		return err
	}
	tr, err := core.New3D(m, d[0], d[1], d[2])
	if err != nil {
		return err
	}
	copy(tr.Data, in)
	var delays *stats.Histogram
	if h, ok := m.Network().(*noc.Hybrid); ok {
		delays = h.ObserveDelays(1)
	}
	spans := newPhaseSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	v, err := simulate(m, tr, spans)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	t.check(v.run.TotalCycles() == u.run.TotalCycles() && v.counters == u.counters &&
		v.events == u.events && v.digest == u.digest,
		"sim: traced run differs from untraced run (cycles %d vs %d, events %d vs %d, digest %s vs %s, counters equal %v)",
		v.run.TotalCycles(), u.run.TotalCycles(), v.events, u.events, v.digest, u.digest, v.counters == u.counters)

	for _, c := range []string{"fft", "rotate", "twiddle"} {
		layer.set("core.host_s."+c, spans.hostS[c], "s")
		layer.set("core.cycles."+c, float64(spans.cycles[c]), "cycles")
	}
	for _, c := range []string{"fft", "rotate"} {
		layer.set("core.host_ns_per_op."+c, ratio(spans.hostS[c]*1e9, float64(spans.ops[c])), "ns")
	}
	shares, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range profileLayers {
		layer.set(l+".self_share", shares[l], "ratio")
	}
	details["profile_samples"] = samples

	layer.set("sim.events", float64(u.events), "count")
	layer.set("sim.host_ns_per_event", u.cpu*1e9/float64(u.events), "ns")
	layer.set("sim.wall_s", u.wall, "s")
	layer.set("xmt.cycles", cycles, "cycles")
	layer.set("xmt.useful_ops", float64(usefulOps(u.counters)), "count")
	layer.set("xmt.util.fpu", u.util.FPU, "ratio")
	layer.set("xmt.util.lsu", u.util.LSU, "ratio")
	layer.set("xmt.util.dram", u.util.DRAM, "ratio")

	ms := m.Memory()
	rowHits, rowMisses := ms.RowBufferStats()
	layer.set("mem.cache_hit_rate", ratio(float64(ms.Hits()), float64(ms.Hits()+ms.Misses())), "ratio")
	layer.set("mem.dram_bytes", float64(ms.DRAMBytes()), "B")
	layer.set("mem.queue_delay_cycles", float64(ms.QueueDelay()), "cycles")
	layer.set("mem.channel_busy_cycles", float64(ms.ChannelBusy()), "cycles")
	layer.set("mem.row_hit_rate", ratio(float64(rowHits), float64(rowHits+rowMisses)), "ratio")
	layer.set("mem.writebacks", float64(ms.Writebacks()), "count")
	layer.set("mem.module_load_max_over_mean", maxOverMean(ms.ModuleLoad()), "ratio")

	layer.set("noc.packets", float64(m.Network().Packets()), "count")
	delayMean := 0.0 // the pure MoT network has no contention delay
	if delays != nil {
		delayMean = delays.Mean()
	}
	layer.set("noc.delay_mean_cycles", delayMean, "cycles")

	layer.set("model.cycles", modelCycles, "cycles")
	layer.set("model.rotation_ratio", gap(toCycles(mp.Rotation.TimeSec), float64(spans.cycles["rotate"])), "ratio")
	layer.set("model.stream_ratio", gap(toCycles(mp.Stream.TimeSec), float64(spans.cycles["fft"])), "ratio")
	layer.set("trace.overhead", v.cpu/u.cpu, "ratio")
	details["sim_traced"] = map[string]any{"wall_s": v.wall, "cpu_s": v.cpu}
	return nil
}

func toCycles(sec float64) float64 { return sec * config.ClockGHz * 1e9 }

// gap is max(a/b, b/a): how far apart two positive cycle counts are, 1
// when they agree.
func gap(a, b float64) float64 { return math.Max(a/b, b/a) }

// simInput generates the simulated transform's input from seed.
func simInput(seed int64, n int) []complex64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return x
}

// digest is the SHA-256 of the exact bits of x.
func digest(x []complex64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(real(v)))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relErr is the relative RMS difference of got from want.
func relErr(got, want []complex64) float64 {
	var num, den float64
	for i := range got {
		d := complex128(got[i]) - complex128(want[i])
		num += real(d)*real(d) + imag(d)*imag(d)
		w := complex128(want[i])
		den += real(w)*real(w) + imag(w)*imag(w)
	}
	return math.Sqrt(num / den)
}

func maxOverMean(xs []uint64) float64 {
	var sum, hi uint64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(xs)) / float64(sum)
}
