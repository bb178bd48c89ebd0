package xmt_test

// End-to-end differential test for adaptive window widening, on the real
// workload: a full 3D FFT simulated with the adaptive driver must be
// bit-identical — output samples, simulated cycles, machine counters —
// to the conservative fixed-window driver, at every worker count. (At
// one worker the serial shared-queue driver runs, which has no window
// modes, so the reference runs the parallel driver at two workers.) This
// is an external test package because it drives the FFT through
// internal/core, which itself imports xmt.

import (
	"reflect"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// widenFFTRun simulates one 8^3 FFT and returns everything comparable.
type widenFFTRun struct {
	data    []complex64
	cycles  uint64
	ctrs    interface{}
	windows uint64
}

func runWidenFFT(t *testing.T, workers int, widen bool) widenFFTRun {
	t.Helper()
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.NewParallel(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !widen {
		xmt.DisableWindowWidening(m)
	}
	tr, err := core.New3D(m, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	return widenFFTRun{
		data:    append([]complex64(nil), tr.Data...),
		cycles:  run.TotalCycles(),
		ctrs:    m.Counters,
		windows: m.SimStats().Windows,
	}
}

func TestShardedWideningDifferentialFFT(t *testing.T) {
	ref := runWidenFFT(t, 2, false)
	if ref.cycles == 0 || ref.windows == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	for _, workers := range []int{1, 2, 4} {
		got := runWidenFFT(t, workers, true)
		if !reflect.DeepEqual(got.data, ref.data) {
			t.Errorf("workers=%d: widened FFT output is not bit-identical to fixed windows", workers)
		}
		if got.cycles != ref.cycles {
			t.Errorf("workers=%d: widened cycles = %d, fixed windows = %d", workers, got.cycles, ref.cycles)
		}
		if !reflect.DeepEqual(got.ctrs, ref.ctrs) {
			t.Errorf("workers=%d: counters diverged\n got %+v\nwant %+v", workers, got.ctrs, ref.ctrs)
		}
		// The accounting must show widening doing its job: fewer (or at
		// worst equal) windows than one per lookahead step.
		if got.windows > ref.windows {
			t.Errorf("workers=%d: widened run advanced %d windows, fixed driver %d",
				workers, got.windows, ref.windows)
		}
		// Fixed-window runs must also agree with each other across workers.
		fixed := runWidenFFT(t, workers, false)
		if !reflect.DeepEqual(fixed.data, ref.data) || fixed.cycles != ref.cycles {
			t.Errorf("workers=%d: fixed-window run diverged from workers=2 fixed-window run", workers)
		}
	}
}
