// Command perfbench is the repository benchmark. One process runs one
// workload: the detailed XMT simulator on one machine configuration, the
// serial host FFT, and the xmtserve transform service under an open-loop
// client, all from inputs generated from -seed. It checks every output,
// and prints a provenance record followed, as the last line, by one JSON
// object with the metrics.
//
// With -trace 0 the metrics are the end-to-end ones a user sees. With
// -trace 1 the same work runs again with per-layer measurement around
// the calls into each package (phase hooks, machine and memory counters,
// a sampled CPU profile folded by package, isolated server stages, a
// rate ladder), and the metrics are the per-layer ones. BENCHMARK.json at
// the repository root lists both sets; METRICS.md here maps each
// per-layer metric to the end-to-end metric it should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim4k-hi --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix. Every workload runs all three products so
// that every end-to-end metric is measured on every workload; they
// differ in the simulated machine, which decides whether the memory
// channels or the network do the work, and in the request rate, which
// decides how often the server coalesces requests.
type workload struct {
	simConfig string  // config.ByName name of the simulated machine
	simDims   [3]int  // simulated 3D transform shape
	rate      float64 // open-loop request rate for the server, req/s
}

var workloads = map[string]workload{
	// DRAM-bound sim (4k, 128³: DRAM ~99% busy, cache hit ~91%) and
	// the busier server (about 1% of requests coalesce).
	"sim4k-hi": {simConfig: "4k", simDims: [3]int{128, 128, 128}, rate: 250},
	// Cache-resident, network-bound sim (64k hybrid NoC, 128×128×64:
	// hit ~99%, DRAM ~3%) and the server at low load, where requests
	// rarely coalesce and JSON is nearly all the cost.
	"sim64k-lo": {simConfig: "64k", simDims: [3]int{128, 128, 64}, rate: 100},
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: finite(v), Unit: unit}
}

// finite maps values JSON cannot carry to finite stand-ins: +Inf (a
// latency quantile that reaches a failed request) to MaxFloat32, and NaN
// to -1.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return -1
	case math.IsInf(v, 1):
		return math.MaxFloat32
	}
	return v
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts checked operations and the ones whose output was wrong.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one checked operation; a failure is also reported on
// standard error.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	msg := fmt.Sprintf(format, args...)
	t.failures = append(t.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: sim4k-hi or sim64k-lo")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 40, "measuring budget: the host FFT and the server's measured step each get a quarter of it; the simulated transform runs once")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs with per-layer measurement and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload sim4k-hi|sim64k-lo, -seconds > 0 and -trace 0|1 (got %q, %v, %d)\n", *name, *seconds, *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	res, details, err := runWorkload(w, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	record := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"provenance": provenance(*seed),
		"details":    details,
	}
	if err := printJSON(map[string]any{"record": record}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}

// runWorkload sets the three products up, runs them in turn and collects
// the metrics of the requested kind.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) (res result, details map[string]any, err error) {
	var t tally
	details = map[string]any{}
	end, layer := metricSet{}, metricSet{}

	env, setupS, err := setUp(w, seed, &t)
	if err != nil {
		return result{}, nil, err
	}
	defer func() {
		if cerr := env.close(); cerr != nil && err == nil {
			err = fmt.Errorf("stop server: %w", cerr)
		}
	}()
	end.set("setup_s", setupS, "s")

	// Each part starts with garbage collected and freed pages returned to
	// the OS, so that neither its footprint nor its time depends on what
	// earlier parts left behind: a reused page must be zeroed, a fresh one
	// need not be.
	var rt runtimeDelta
	debug.FreeOSMemory()
	if err := runSim(env, w, seed, traced, &t, &rt, end, layer, details); err != nil {
		return result{}, nil, err
	}
	if err := runHostFFT(env, seed, budget/4, traced, &t, &rt, end, layer, details); err != nil {
		return result{}, nil, err
	}
	debug.FreeOSMemory()
	if err := runServe(env, w, seed, budget/4, traced, &t, &rt, end, layer, details); err != nil {
		return result{}, nil, err
	}
	layer.set("runtime.gc_cycles", float64(rt.gcCycles), "count")
	layer.set("runtime.alloc_bytes", float64(rt.allocBytes), "B")

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	end.set("peak_rss_mb", rss, "MB")
	details["failures"] = t.failures

	res = result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: end}
	if traced {
		res.Metrics = layer
	}
	return res, details, nil
}

// runtimeDelta accumulates Go runtime activity over the parts of a run
// that the untraced run also performs.
type runtimeDelta struct {
	before               runtime.MemStats
	gcCycles, allocBytes uint64
}

func (r *runtimeDelta) begin() { runtime.ReadMemStats(&r.before) }

func (r *runtimeDelta) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.gcCycles += uint64(now.NumGC - r.before.NumGC)
	r.allocBytes += now.TotalAlloc - r.before.TotalAlloc
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuSeconds is the CPU time the process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// elapsed runs f and returns its wall time in seconds.
func elapsed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// timed runs f and returns its wall time and the process CPU time it
// took, in seconds. The end-to-end times of the serial parts use CPU
// time: on an idle core the two agree, and on a shared virtual machine
// CPU time leaves out the time the hypervisor gives the core to others.
func timed(f func() error) (wall, cpu float64, err error) {
	c0 := cpuSeconds()
	wall, err = elapsed(f)
	return wall, cpuSeconds() - c0, err
}
