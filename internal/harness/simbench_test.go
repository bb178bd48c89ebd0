package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunSimBench(t *testing.T) {
	rec, err := RunSimBench(64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-sim-bench" || rec.NumCPU < 1 || rec.GoMaxProcs < 1 || rec.GoVersion == "" {
		t.Fatalf("bad record header: %+v", rec)
	}
	if rec.Reps != 2 {
		t.Errorf("reps = %d, want 2", rec.Reps)
	}
	if rec.Cycles == 0 || rec.Events == 0 || rec.UsefulEvents == 0 {
		t.Errorf("empty measurement %+v", rec.SimBenchResult)
	}
	if rec.ElapsedSec > 0 && rec.UsefulEventsPerSec != float64(rec.UsefulEvents)/rec.ElapsedSec {
		t.Errorf("throughput not derived from useful events: %+v", rec.SimBenchResult)
	}
	// The simulation is deterministic: a second bench measures the same
	// simulated work.
	again, err := RunSimBench(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != rec.Cycles || again.Events != rec.Events || again.UsefulEvents != rec.UsefulEvents {
		t.Errorf("reruns disagree: %+v vs %+v", again.SimBenchResult, rec.SimBenchResult)
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back SimBenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("record does not round-trip as JSON: %v", err)
	}
	if back != *rec {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rec)
	}
}
