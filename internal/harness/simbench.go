package harness

// Simulator-performance benchmark: a 3D-FFT workload simulated on the
// detailed engine, with wall-clock time and engine statistics written as
// a machine-readable BENCH_sim.json record (the simulator counterpart of
// the host-FFT BENCH_fft.json).
//
// Throughput is derived from *useful* (model-level) work — loads,
// stores, FP/ALU/prefix-sum operations and threads — a property of the
// workload rather than of the engine's bookkeeping. Raw engine event
// counts are recorded too, with their own rate.
//
// The record embeds its provenance — host CPU count, GOMAXPROCS, Go
// version, OS and architecture — so a number is never read without the
// machine that produced it.

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// SimBenchResult is one measurement of the workload.
type SimBenchResult struct {
	ElapsedSec float64 `json:"elapsed_sec"`
	Cycles     uint64  `json:"cycles"` // simulated cycles of the FFT
	// Events counts raw engine events (pops from the event queue).
	// UsefulEvents counts model-level operations (loads, stores,
	// FP/ALU/PS ops, threads), the basis for throughput.
	Events             uint64  `json:"events"`
	UsefulEvents       uint64  `json:"useful_events"`
	UsefulEventsPerSec float64 `json:"useful_events_per_sec"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
}

// SimBenchRecord is the full BENCH_sim.json payload: provenance, then
// the best of Reps runs.
type SimBenchRecord struct {
	Kind       string `json:"kind"` // "xmt-sim-bench"
	Config     string `json:"config"`
	TCUs       int    `json:"tcus"`
	N          int    `json:"n"` // points per dimension, n^3 total
	Reps       int    `json:"reps"`
	GoMaxProcs int    `json:"go_max_procs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	SimBenchResult
}

// Write emits the record as indented JSON.
func (r *SimBenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// usefulEvents reduces a counter set to the model-level operation count.
func usefulEvents(c stats.Counters) uint64 {
	return c.Loads + c.Stores + c.FPOps + c.ALUOps + c.PSOps + c.Threads
}

// simBenchOnce runs one n^3 FFT on a fresh machine and measures it.
func simBenchOnce(cfg config.Config, n int) (SimBenchResult, error) {
	m, err := xmt.New(cfg)
	if err != nil {
		return SimBenchResult{}, err
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		return SimBenchResult{}, err
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	begin := time.Now()
	run, err := tr.Run(fft.Forward)
	if err != nil {
		return SimBenchResult{}, err
	}
	elapsed := time.Since(begin).Seconds()
	res := SimBenchResult{
		ElapsedSec: elapsed, Cycles: run.TotalCycles(),
		Events: m.SimStats().Events, UsefulEvents: usefulEvents(m.Counters),
	}
	if elapsed > 0 {
		res.UsefulEventsPerSec = float64(res.UsefulEvents) / elapsed
		res.EngineEventsPerSec = float64(res.Events) / elapsed
	}
	return res, nil
}

// RunSimBench measures an n^3 FFT at the scaled 4k machine size, keeping
// the fastest of reps runs.
func RunSimBench(tcus, n, reps int) (*SimBenchRecord, error) {
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	rec := &SimBenchRecord{
		Kind: "xmt-sim-bench", Config: cfg.Name, TCUs: cfg.TCUs, N: n, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	for r := 0; r < reps; r++ {
		res, err := simBenchOnce(cfg, n)
		if err != nil {
			return nil, err
		}
		if r == 0 || res.ElapsedSec < rec.ElapsedSec {
			rec.SimBenchResult = res
		}
	}
	return rec, nil
}
