// Package stats collects execution statistics from simulated runs:
// operation counters, per-phase cycle accounting, and GFLOPS computation
// under both the "actual FLOPs" convention (used by the Roofline analysis
// in §VI-B) and the standard 5N·log2(N) FFT convention (used by Tables
// IV-VI).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters tallies the dynamic operation mix of a simulated region.
type Counters struct {
	FPOps       uint64 // floating-point operations executed
	ALUOps      uint64 // integer/address operations
	Loads       uint64 // word loads issued to shared memory
	Stores      uint64 // word stores issued to shared memory
	PSOps       uint64 // prefix-sum unit operations
	Threads     uint64 // threads executed
	Spawns      uint64 // spawn/join regions
	CacheHits   uint64
	CacheMisses uint64
	DRAMBytes   uint64 // bytes transferred on DRAM channels
	NoCPackets  uint64 // packets injected into the interconnect
	Prefetches  uint64 // cache lines fetched speculatively by the prefetcher
	RowHits     uint64 // DRAM accesses that hit an open row buffer
	RowMisses   uint64 // DRAM accesses that had to open a row

	// Fault-injection & resilience tallies (zero unless faults enabled).
	NoCDropped       uint64 // request packets lost in flight
	NoCCorrupted     uint64 // request packets rejected as corrupted
	NoCRetransmits   uint64 // recovery retransmissions sent
	ECCCorrected     uint64 // DRAM single-bit errors corrected by SECDED
	ECCUncorrectable uint64 // DRAM double-bit errors detected, not corrected
	SilentFaults     uint64 // DRAM bit errors with ECC disabled (undetected)
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.FPOps += o.FPOps
	c.ALUOps += o.ALUOps
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.PSOps += o.PSOps
	c.Threads += o.Threads
	c.Spawns += o.Spawns
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.DRAMBytes += o.DRAMBytes
	c.NoCPackets += o.NoCPackets
	c.Prefetches += o.Prefetches
	c.RowHits += o.RowHits
	c.RowMisses += o.RowMisses
	c.NoCDropped += o.NoCDropped
	c.NoCCorrupted += o.NoCCorrupted
	c.NoCRetransmits += o.NoCRetransmits
	c.ECCCorrected += o.ECCCorrected
	c.ECCUncorrectable += o.ECCUncorrectable
	c.SilentFaults += o.SilentFaults
}

// MemOps returns total shared-memory word operations.
func (c Counters) MemOps() uint64 { return c.Loads + c.Stores }

// HitRate returns the cache hit fraction, or 1 if no accesses occurred.
func (c Counters) HitRate() float64 {
	total := c.CacheHits + c.CacheMisses
	if total == 0 {
		return 1
	}
	return float64(c.CacheHits) / float64(total)
}

// Util is the fraction of available slots used per resource over a
// phase (0..1; the resource near 1 is the binding one). It is filled by
// the detailed simulator from before/after snapshots and carried through
// the JSON/CSV export so a Fig.-3-style breakdown can name the
// bottleneck of every phase, not just its cycle count.
type Util struct {
	FPU  float64
	LSU  float64
	DRAM float64
}

// Phase is one timed region of a computation (e.g. one FFT pass, or the
// aggregate rotation vs non-rotation split of Fig. 3).
type Phase struct {
	Name   string
	Cycles uint64
	Ops    Counters
	Util   Util
}

// Intensity returns the phase's computational intensity in FLOPs per
// DRAM byte, the x-coordinate of the Roofline plot. Phases that move no
// DRAM data return +Inf (purely compute-bound).
func (p Phase) Intensity() float64 {
	if p.Ops.DRAMBytes == 0 {
		return math.Inf(1)
	}
	return float64(p.Ops.FPOps) / float64(p.Ops.DRAMBytes)
}

// GFLOPS returns achieved GFLOPS at the given clock using actual FLOPs.
func (p Phase) GFLOPS(clockGHz float64) float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.Ops.FPOps) / float64(p.Cycles) * clockGHz
}

// Run aggregates the phases of one simulated computation.
type Run struct {
	Label  string
	Phases []Phase
}

// TotalCycles sums cycles across phases.
func (r Run) TotalCycles() uint64 {
	var t uint64
	for _, p := range r.Phases {
		t += p.Cycles
	}
	return t
}

// TotalOps sums counters across phases.
func (r Run) TotalOps() Counters {
	var c Counters
	for _, p := range r.Phases {
		c.Add(p.Ops)
	}
	return c
}

// Merged returns the named phases merged into one (summing cycles and
// counters); phases not matching any name are ignored. Used to build the
// rotation / non-rotation split of Fig. 3 from per-pass phases.
func (r Run) Merged(name string, match func(Phase) bool) Phase {
	out := Phase{Name: name}
	for _, p := range r.Phases {
		if match(p) {
			out.Cycles += p.Cycles
			out.Ops.Add(p.Ops)
			// Cycle-weighted utilization: a long bandwidth-bound pass should
			// dominate the merged figure over a short compute-bound one.
			out.Util.FPU += p.Util.FPU * float64(p.Cycles)
			out.Util.LSU += p.Util.LSU * float64(p.Cycles)
			out.Util.DRAM += p.Util.DRAM * float64(p.Cycles)
		}
	}
	if out.Cycles > 0 {
		out.Util.FPU /= float64(out.Cycles)
		out.Util.LSU /= float64(out.Cycles)
		out.Util.DRAM /= float64(out.Cycles)
	}
	return out
}

// Overall returns all phases merged, labeled "overall".
func (r Run) Overall() Phase {
	return r.Merged("overall", func(Phase) bool { return true })
}

// GFLOPS returns whole-run achieved GFLOPS using actual FLOPs.
func (r Run) GFLOPS(clockGHz float64) float64 { return r.Overall().GFLOPS(clockGHz) }

// StandardFFTFlops returns the conventional FLOP count 5·N·log2(N) for an
// N-point FFT, the normalization used throughout the paper's speedup
// tables ("to allow comparison with other work", §VI).
func StandardFFTFlops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// StandardGFLOPS converts a cycle count for an N-point FFT into GFLOPS
// under the 5N·log2(N) convention at the given clock.
func StandardGFLOPS(n int, cycles uint64, clockGHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	return StandardFFTFlops(n) / float64(cycles) * clockGHz
}

// Seconds converts cycles to seconds at the given clock rate.
func Seconds(cycles uint64, clockGHz float64) float64 {
	return float64(cycles) / (clockGHz * 1e9)
}

func (r Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s: %d cycles\n", r.Label, r.TotalCycles())
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-24s %12d cycles  %12d flops  %10d dram bytes\n",
			p.Name, p.Cycles, p.Ops.FPOps, p.Ops.DRAMBytes)
	}
	return b.String()
}

// Histogram is a simple fixed-bucket histogram used for queueing-delay
// and utilization reporting in the simulator.
type Histogram struct {
	BucketWidth uint64
	counts      map[uint64]uint64
	total       uint64
	sum         uint64
	sumSq       float64
	max         uint64
}

// NewHistogram returns a histogram with the given bucket width in cycles.
func NewHistogram(bucketWidth uint64) *Histogram {
	if bucketWidth == 0 {
		bucketWidth = 1
	}
	return &Histogram{BucketWidth: bucketWidth, counts: make(map[uint64]uint64)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[v/h.BucketWidth]++
	h.total++
	h.sum += v
	h.sumSq += float64(v) * float64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Merge folds all of o's samples into h. The bucket widths must match:
// merging histograms of different granularity would silently misbucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.BucketWidth != h.BucketWidth {
		panic("stats: merging histograms with different bucket widths")
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.total += o.total
	h.sum += o.sum
	h.sumSq += o.sumSq
	if o.max > h.max {
		h.max = o.max
	}
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max }

// Stddev returns the population standard deviation of the samples
// (0 when fewer than two samples have been observed).
func (h *Histogram) Stddev() float64 {
	if h.total < 2 {
		return 0
	}
	mean := h.Mean()
	v := h.sumSq/float64(h.total) - mean*mean
	if v < 0 {
		v = 0 // guard against floating-point cancellation
	}
	return math.Sqrt(v)
}

// Quantile returns an upper bound on the q-quantile (0<=q<=1) using
// bucket upper edges, clamped to the largest observed sample so the
// reported bound never exceeds anything that actually happened.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	type bucket struct{ idx, n uint64 }
	buckets := make([]bucket, 0, len(h.counts))
	for i, n := range h.counts {
		buckets = append(buckets, bucket{i, n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].idx < buckets[j].idx })
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	clamp := func(edge uint64) uint64 {
		if edge > h.max {
			return h.max
		}
		return edge
	}
	var seen uint64
	for _, b := range buckets {
		seen += b.n
		if seen >= target {
			return clamp((b.idx + 1) * h.BucketWidth)
		}
	}
	return clamp((buckets[len(buckets)-1].idx + 1) * h.BucketWidth)
}

// Summary returns a one-line count/mean/p50/p95/max digest, the format
// used by the trace package's plain-text reports.
func (h *Histogram) Summary() string {
	if h.total == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.max)
}
