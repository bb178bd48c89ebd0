package xmt

// Checkpoint state capture for the whole machine (internal/ckpt).
// Capturable only at spawn boundaries — the machine's quiescent points,
// where no parallel section is active and the engine queue is drained.
// At such a point a machine's future behaviour is fully determined by
// the clock, resource-port occupancy, counters, memory/NoC state and
// fault-stream positions captured here; thread programs and TCU scratch
// state are per-section and never cross a boundary. See DESIGN.md §12.

import (
	"fmt"

	"xmtfft/internal/mem"
	"xmtfft/internal/noc"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
)

// PortTriple is the serializable state of one cluster's shared
// functional-unit ports.
type PortTriple struct {
	FPU sim.PortState
	LSU sim.PortState
	MDU sim.PortState
}

// MachineState is the complete serializable state of a quiescent
// Machine. Serial is never nil in a state this package captures; it is
// nil only in a state decoded from a checkpoint the removed sharded
// engine wrote, which RestoreState refuses.
type MachineState struct {
	Serial   *sim.EngineState // engine clock and counters
	Clusters []PortTriple     // per-cluster ports

	Counters stats.Counters
	Memory   mem.SystemState
	Network  noc.State
	Dead     []bool // fail-stopped clusters (nil = all alive)

	// Watchdog state: window 0 means no watchdog was installed.
	WatchdogWindow uint64
	WatchdogLast   uint64
}

// CaptureState captures the machine's state at a spawn boundary. It
// fails if a parallel section is active or the engine has pending
// events (i.e. the machine is not at a quiescent point, e.g. after a
// watchdog abort poisoned it).
func (m *Machine) CaptureState() (*MachineState, error) {
	if m.prog != nil || m.outstanding != 0 {
		return nil, fmt.Errorf("xmt: capture while a parallel section is active")
	}
	es, err := m.engine.CaptureState()
	if err != nil {
		return nil, err
	}
	st := &MachineState{Serial: &es, Counters: m.Counters,
		Clusters: make([]PortTriple, len(m.clusters))}
	for i := range m.clusters {
		c := &m.clusters[i]
		st.Clusters[i] = PortTriple{FPU: c.fpu.State(), LSU: c.lsu.State(), MDU: c.mdu.State()}
	}
	st.Memory = m.memory.CaptureState()
	ns, err := noc.CaptureState(m.network)
	if err != nil {
		return nil, err
	}
	st.Network = ns
	if m.dead != nil {
		st.Dead = append([]bool(nil), m.dead...)
	}
	if m.wd != nil {
		st.WatchdogWindow = m.wd.Window
		st.WatchdogLast = m.wd.LastProgress()
	}
	return st, nil
}

// RestoreState restores a captured state onto a freshly built machine of
// the same configuration. If the captured run had fault injection
// armed, the caller must have armed this machine with the same plan
// (EnableFaults) before restoring — the plan owns rates and schedules;
// this method restores stream positions and tallies. A captured
// watchdog is reinstalled with its progress mark (overriding any
// watchdog the caller set).
func (m *Machine) RestoreState(st *MachineState) error {
	if m.prog != nil || m.outstanding != 0 {
		return fmt.Errorf("xmt: restore while a parallel section is active")
	}
	if st.Serial == nil {
		return fmt.Errorf("xmt: machine state has no serial engine state; it was captured by the sharded parallel engine, which has been removed, so it cannot be resumed")
	}
	if len(st.Clusters) != len(m.clusters) {
		return fmt.Errorf("xmt: restore with %d cluster states onto %d clusters", len(st.Clusters), len(m.clusters))
	}
	if err := m.engine.RestoreState(*st.Serial); err != nil {
		return err
	}
	for i := range m.clusters {
		c := &m.clusters[i]
		c.fpu.RestoreState(st.Clusters[i].FPU)
		c.lsu.RestoreState(st.Clusters[i].LSU)
		c.mdu.RestoreState(st.Clusters[i].MDU)
	}
	if err := m.memory.RestoreState(st.Memory); err != nil {
		return err
	}
	if err := noc.RestoreState(m.network, st.Network); err != nil {
		return err
	}
	m.Counters = st.Counters
	if st.Dead != nil {
		m.dead = append([]bool(nil), st.Dead...)
	} else {
		m.dead = nil
	}
	if st.WatchdogWindow > 0 {
		m.SetWatchdog(st.WatchdogWindow)
		m.wd.Progress(st.WatchdogLast)
	}
	return nil
}
