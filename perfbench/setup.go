package main

import (
	"errors"
	"fmt"
	"runtime/debug"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// Host FFT sizes: 3D 256³ (data plus plan scratch 256 MiB, larger than
// the last-level cache), and 1D sizes where the codelet leaf is the whole
// plan (1024), one prefix pass plus leaf (4096) and several passes (65536).
const hostN3 = 256

var hostSizes1D = []int{1024, 4096, 65536}

// env is what set-up builds and the measured parts use.
type env struct {
	cfg config.Config
	m   *xmt.Machine
	tr  *core.Transform
	p3  *fft.Plan3D[complex64]
	p1  map[int]*fft.Plan[complex64]
	srv *server
}

// setUp builds the simulated machine and transform, the host FFT plans
// (from an empty plan cache) and the server, and answers one request,
// setupReps times; it keeps the last set and returns the median process
// CPU time (see timed) of one set-up.
func setUp(w workload, seed int64, t *tally) (*env, float64, error) {
	cfg, err := config.ByName(w.simConfig)
	if err != nil {
		return nil, 0, err
	}
	first, err := makePayloads(seed, 1, serveN)
	if err != nil {
		return nil, 0, err
	}
	var (
		e    *env
		cpus []float64
	)
	for i := 0; i < setupReps; i++ {
		// Drop the previous set and its pages first, so that every
		// set-up after the first allocates into the same reused memory.
		if e != nil {
			err := e.close()
			e = nil
			if err != nil {
				return nil, 0, err
			}
		}
		fft.ResetPlanCache()
		debug.FreeOSMemory()
		var ok bool
		_, cpu, err := timed(func() (err error) {
			if e, err = newEnv(cfg, w.simDims); err != nil {
				return err
			}
			ok, err = e.srv.roundTrip(first[0])
			return err
		})
		if err != nil {
			if e != nil {
				err = errors.Join(err, e.close())
			}
			return nil, 0, err
		}
		cpus = append(cpus, cpu)
		t.check(ok, "set-up: first request's response differs from the direct transform")
	}
	return e, median(cpus), nil
}

func newEnv(cfg config.Config, dims [3]int) (*env, error) {
	m, err := xmt.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s machine: %w", cfg.Name, err)
	}
	tr, err := core.New3D(m, dims[0], dims[1], dims[2])
	if err != nil {
		return nil, fmt.Errorf("build %v transform: %w", dims, err)
	}
	p3, err := fft.CachedPlan3D[complex64](hostN3, hostN3, hostN3)
	if err != nil {
		return nil, err
	}
	p1 := map[int]*fft.Plan[complex64]{}
	for _, n := range hostSizes1D {
		if p1[n], err = fft.CachedPlan[complex64](n); err != nil {
			return nil, err
		}
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	return &env{cfg: cfg, m: m, tr: tr, p3: p3, p1: p1, srv: srv}, nil
}

func (e *env) close() error { return e.srv.close() }
