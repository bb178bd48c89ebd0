package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime/debug"
	"time"

	"xmtfft/internal/fft"
)

// Host FFT tolerances (complex64): relative RMS error of a 3D forward/
// inverse round trip or of two 3D paths, and the error of one sampled 1D
// bin against a float64 naive DFT, relative to the input's L2 norm.
const (
	tol3D  = 1e-5
	tol1D  = 1e-5
	checkK = 8 // sampled bins per 1D size
)

// runHostFFT times the serial host FFT: 3D 256³ forward and inverse
// transforms for 60% of budget, then each 1D size for an equal share of
// the rest. The traced run adds plan creation times, plan shapes and a
// 3D transform decomposed into row FFTs and fft.Rotate3D calls.
func runHostFFT(e *env, seed int64, budget time.Duration, traced bool, t *tally, rt *runtimeDelta, end, layer metricSet, details map[string]any) error {
	debug.FreeOSMemory()
	rt.begin()
	g3, err := hostFFT3D(e.p3, seed, budget*6/10, t)
	if err != nil {
		return err
	}
	g1 := map[int]gflops{}
	logSum := 0.0
	for _, n := range hostSizes1D {
		if g1[n], err = hostFFT1D(e.p1[n], seed, budget*4/10/time.Duration(len(hostSizes1D)), t); err != nil {
			return err
		}
		logSum += math.Log(g1[n].cpu)
	}
	rt.end()
	end.set("fft3d_gflops", g3.cpu, "GFLOPS")
	end.set("fft1d_gflops", math.Exp(logSum/float64(len(hostSizes1D))), "GFLOPS")
	details["fft_gflops_cpu_wall"] = map[string]any{"3d256": []float64{g3.cpu, g3.wall},
		"n1024": []float64{g1[1024].cpu, g1[1024].wall}, "n4096": []float64{g1[4096].cpu, g1[4096].wall},
		"n65536": []float64{g1[65536].cpu, g1[65536].wall}}
	if !traced {
		return nil
	}

	for _, n := range hostSizes1D {
		name := fmt.Sprintf("n%d", n)
		s, err := planTime(func() error { _, err := fft.CachedPlan[complex64](n); return err })
		if err != nil {
			return err
		}
		layer.set("fft.plan_s."+name, s, "s")
		layer.set("fft.gflops."+name, g1[n].cpu, "GFLOPS")
		layer.set("fft.leaf_n."+name, float64(e.p1[n].LeafN()), "points")
		layer.set("fft.passes."+name, float64(e.p1[n].NumPasses()), "count")
	}
	s, err := planTime(func() error { _, err := fft.CachedPlan3D[complex64](hostN3, hostN3, hostN3); return err })
	if err != nil {
		return err
	}
	layer.set("fft.plan_s.3d256", s, "s")

	rowsS, rotS, leafCalls, err := decomposed3D(e.p3, seed, t)
	if err != nil {
		return err
	}
	points := float64(hostN3 * hostN3 * hostN3)
	layer.set("fft.rows_s.3d256", rowsS, "s")
	layer.set("fft.rotate_s.3d256", rotS, "s")
	layer.set("fft.rotate_gbps", 3*2*8*points/rotS/1e9, "GB/s") // three rotations, each reads and writes every complex64
	layer.set("fft.codelet_leaf_calls", float64(leafCalls), "count")
	return nil
}

// planTime is the median time of building a plan from an empty cache.
func planTime(build func() error) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		fft.ResetPlanCache()
		debug.FreeOSMemory()
		s, err := elapsed(build)
		if err != nil {
			return 0, err
		}
		ts = append(ts, s)
	}
	return median(ts), nil
}

// gflops is a transform rate, 5·N·log2 N per second, at the median
// per-transform CPU time and at the median wall time.
type gflops struct{ cpu, wall float64 }

func rates(flops float64, walls, cpus []float64) gflops {
	return gflops{cpu: flops / median(cpus) / 1e9, wall: flops / median(walls) / 1e9}
}

// hostFFT3D alternates forward and inverse 256³ transforms until budget
// is used (at least two round trips) and checks every round trip against
// the regenerated input.
func hostFFT3D(p *fft.Plan3D[complex64], seed int64, budget time.Duration, t *tally) (gflops, error) {
	x := make([]complex64, hostN3*hostN3*hostN3)
	fill(x, seed)
	var walls, cpus []float64
	start := time.Now()
	for trip := 0; trip < 2 || time.Since(start) < budget; trip++ {
		for _, dir := range []fft.Direction{fft.Forward, fft.Inverse} {
			wall, cpu, err := timed(func() error { return p.Transform(x, dir) })
			if err != nil {
				return gflops{}, err
			}
			walls, cpus = append(walls, wall), append(cpus, cpu)
		}
		rel := refill(x, seed)
		t.check(rel <= tol3D, "host 3D: round trip error %.3g (limit %g)", rel, tol3D)
	}
	n := float64(len(x))
	return rates(5*n*math.Log2(n), walls, cpus), nil
}

// hostFFT1D checks sampled bins of one forward transform against a naive
// DFT, then times batches of alternating forward and inverse transforms
// for budget.
func hostFFT1D(p *fft.Plan[complex64], seed int64, budget time.Duration, t *tally) (gflops, error) {
	n := p.N()
	in := make([]complex64, n)
	fill(in, seed+int64(n))
	x := append([]complex64(nil), in...)
	if err := p.Transform(x, fft.Forward); err != nil {
		return gflops{}, err
	}
	var norm float64
	for _, v := range in {
		norm += real(complex128(v))*real(complex128(v)) + imag(complex128(v))*imag(complex128(v))
	}
	norm = math.Sqrt(norm)
	rng := newSplitmix(seed)
	for i := 0; i < checkK; i++ {
		k := int(rng.next() % uint64(n))
		var want complex128
		for j, v := range in {
			want += complex128(v) * cmplx.Rect(1, -2*math.Pi*float64(j*k%n)/float64(n))
		}
		err := cmplx.Abs(complex128(x[k])-want) / norm
		t.check(err <= tol1D, "host 1D n=%d: bin %d differs from the naive DFT by %.3g (limit %g)", n, k, err, tol1D)
	}

	flops := 5 * float64(n) * math.Log2(float64(n))
	batch := max(2, int(2e6/flops)&^1) // about a millisecond per batch; even, so data stays bounded
	var walls, cpus []float64
	start := time.Now()
	for len(walls) < 5 || time.Since(start) < budget {
		wall, cpu, err := timed(func() error {
			for i := 0; i < batch; i += 2 {
				if err := p.Transform(x, fft.Forward); err != nil {
					return err
				}
				if err := p.Transform(x, fft.Inverse); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return gflops{}, err
		}
		walls, cpus = append(walls, wall/float64(batch)), append(cpus, cpu/float64(batch))
	}
	return rates(flops, walls, cpus), nil
}

// decomposed3D runs one forward 256³ transform as three rounds of row
// FFTs (fft.CachedPlan) each followed by fft.Rotate3D, taking the CPU
// time of the two parts, and checks it against the fused fft.Plan3D
// transform. It also counts the codelet leaf calls of that fused
// transform.
func decomposed3D(p3 *fft.Plan3D[complex64], seed int64, t *tally) (rowsS, rotS float64, leafCalls uint64, err error) {
	debug.FreeOSMemory()
	plan, err := fft.CachedPlan[complex64](hostN3)
	if err != nil {
		return 0, 0, 0, err
	}
	src := make([]complex64, hostN3*hostN3*hostN3)
	dst := make([]complex64, len(src))
	fill(src, seed)
	dims := [3]int{hostN3, hostN3, hostN3}
	for round := 0; round < 3; round++ {
		_, s, err := timed(func() error {
			for r := 0; r < len(src); r += dims[2] {
				if err := plan.Transform(src[r:r+dims[2]], fft.Forward); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		rowsS += s
		_, s, err = timed(func() error { return fft.Rotate3D(dst, src, dims[0], dims[1], dims[2]) })
		if err != nil {
			return 0, 0, 0, err
		}
		rotS += s
		dims = [3]int{dims[2], dims[0], dims[1]}
		src, dst = dst, src
	}
	fill(dst, seed)
	before := fft.CodeletLeafCalls()
	if err := p3.Transform(dst, fft.Forward); err != nil {
		return 0, 0, 0, err
	}
	leafCalls = fft.CodeletLeafCalls() - before
	rel := relErr(src, dst)
	t.check(rel <= tol3D, "host 3D: row+rotate decomposition differs from fft.Plan3D by %.3g (limit %g)", rel, tol3D)
	return rowsS, rotS, leafCalls, nil
}

// splitmix is SplitMix64, a small seeded generator fast enough to fill
// and re-check 16M-point inputs.
type splitmix uint64

func newSplitmix(seed int64) *splitmix {
	s := splitmix(seed)
	return &s
}

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to a float32 in [-1, 1).
func (s *splitmix) unit() float32 { return float32(int32(s.next()>>32)) / (1 << 31) }

// fill writes the seeded input into x.
func fill(x []complex64, seed int64) {
	rng := newSplitmix(seed)
	for i := range x {
		x[i] = complex(rng.unit(), rng.unit())
	}
}

// refill compares x with the seeded input, restores the input into x and
// returns the relative RMS difference.
func refill(x []complex64, seed int64) float64 {
	rng := newSplitmix(seed)
	var num, den float64
	for i := range x {
		w := complex(rng.unit(), rng.unit())
		d := complex128(x[i]) - complex128(w)
		num += real(d)*real(d) + imag(d)*imag(d)
		den += float64(real(w))*float64(real(w)) + float64(imag(w))*float64(imag(w))
		x[i] = w
	}
	return math.Sqrt(num / den)
}
