package xmt

import (
	"testing"

	"xmtfft/internal/config"
)

// snapshotSuite runs the differential workload suite, capturing a
// snapshot at every spawn boundary.
func snapshotSuite(t *testing.T, m *Machine) []Snapshot {
	t.Helper()
	snaps := []Snapshot{m.Snapshot()}
	for _, w := range diffWorkloads(m.Config().TCUs) {
		m.EnablePrefetch(w.prefetch)
		if _, err := m.Spawn(w.threads, w.prog); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		snaps = append(snaps, m.Snapshot())
		m.AdvanceSerial(50)
	}
	return snaps
}

// TestSnapshotMatchesSerialEngineAtBoundaries ties the snapshot busy
// counters at spawn boundaries back to the op counts exactly: FPUBusy
// (one slot per FLOP), LSUBusy (one slot per load/store issue) and
// NoCPackets (request + reply per load, request per store).
func TestSnapshotMatchesSerialEngineAtBoundaries(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := snapshotSuite(t, m)
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Cycle <= snaps[i-1].Cycle {
			t.Errorf("boundary %d: cycle %d not after %d", i, snaps[i].Cycle, snaps[i-1].Cycle)
		}
	}
	c := m.Counters
	last := snaps[len(snaps)-1]
	if last.FPUBusy == 0 || last.LSUBusy == 0 || last.DRAMBusy == 0 || last.NoCPackets == 0 {
		t.Errorf("final snapshot has idle resources: %+v", last)
	}
	if last.FPUBusy != c.FPOps {
		t.Errorf("FPUBusy %d != FPOps %d", last.FPUBusy, c.FPOps)
	}
	if last.LSUBusy != c.Loads+c.Stores {
		t.Errorf("LSUBusy %d != Loads+Stores %d", last.LSUBusy, c.Loads+c.Stores)
	}
	if want := 2*c.Loads + c.Stores; last.NoCPackets != want {
		t.Errorf("NoCPackets %d != 2*Loads+Stores %d", last.NoCPackets, want)
	}
}
