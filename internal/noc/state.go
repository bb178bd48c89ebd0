package noc

// Checkpoint state capture (internal/ckpt). Network state is the packet
// accounting, the hybrid's butterfly switch-port occupancy, and — when
// the reliable transport wraps the network — the retransmit protocol's
// fault-stream position, attempt sequence and fault tallies. Topology
// (levels, port counts) and fault rates are configuration, rebuilt from
// config.Config / fault.Plan on restore. There is never in-flight NoC
// traffic to capture: packets are timed analytically at injection, so at
// a quiescent point the fabric holds no packet state beyond the port
// reservations captured here.

import (
	"fmt"

	"xmtfft/internal/sim"
)

// ReliableState is the retransmit wrapper's serializable state. Drop and
// corrupt rates, the dropNth schedule and the RTO are configuration
// (rebuilt by WrapReliable from the fault plan).
type ReliableState struct {
	RNG         uint64 // fault-stream position
	Attempts    uint64
	Drops       uint64
	Corrupts    uint64
	Retransmits uint64
	GiveUps     uint64
}

// State is the serializable state of any Network implementation.
type State struct {
	Kind     string // "mot" or "hybrid"
	Packets  uint64
	Blocked  uint64            // hybrid only
	Stages   [][]sim.PortState // hybrid only: butterfly switch ports (NextFree; Used and Busy are 0)
	Reliable *ReliableState    // non-nil when a Reliable wrapper was captured
}

// CaptureState captures the state of n, unwrapping a Reliable transport.
func CaptureState(n Network) (State, error) {
	switch v := n.(type) {
	case *Reliable:
		st, err := CaptureState(v.inner)
		if err != nil {
			return State{}, err
		}
		st.Reliable = &ReliableState{
			RNG:      v.rng.State(),
			Attempts: v.attempts,
			Drops:    v.Drops, Corrupts: v.Corrupts,
			Retransmits: v.Retransmits, GiveUps: v.GiveUps,
		}
		return st, nil
	case *MoT:
		return State{Kind: "mot", Packets: v.packets}, nil
	case *Hybrid:
		st := State{Kind: "hybrid", Packets: v.packets, Blocked: v.Blocked,
			Stages: make([][]sim.PortState, v.levels)}
		for s := range st.Stages {
			st.Stages[s] = make([]sim.PortState, v.ports)
			for i := range st.Stages[s] {
				st.Stages[s][i].NextFree = v.next[s*v.ports+i]
			}
		}
		return st, nil
	default:
		return State{}, fmt.Errorf("noc: cannot capture state of %T", n)
	}
}

// RestoreState restores a captured state onto a network built from the
// same configuration (and, for a Reliable wrapper, armed with the same
// fault plan — presence must match the capture).
func RestoreState(n Network, st State) error {
	if r, ok := n.(*Reliable); ok {
		if st.Reliable == nil {
			return fmt.Errorf("noc: restore without reliable-transport state onto a fault-armed network")
		}
		rs := st.Reliable
		r.rng.SetState(rs.RNG)
		r.attempts = rs.Attempts
		r.Drops, r.Corrupts, r.Retransmits, r.GiveUps = rs.Drops, rs.Corrupts, rs.Retransmits, rs.GiveUps
		inner := st
		inner.Reliable = nil
		return RestoreState(r.inner, inner)
	}
	if st.Reliable != nil {
		return fmt.Errorf("noc: restore with reliable-transport state onto an unarmed network")
	}
	switch v := n.(type) {
	case *MoT:
		if st.Kind != "mot" {
			return fmt.Errorf("noc: restore %q state onto a mesh-of-trees network", st.Kind)
		}
		v.packets = st.Packets
		return nil
	case *Hybrid:
		if st.Kind != "hybrid" {
			return fmt.Errorf("noc: restore %q state onto a hybrid network", st.Kind)
		}
		if len(st.Stages) != v.levels {
			return fmt.Errorf("noc: restore with %d butterfly stages onto %d", len(st.Stages), v.levels)
		}
		for s := range st.Stages {
			if len(st.Stages[s]) != v.ports {
				return fmt.Errorf("noc: restore stage %d with %d ports onto %d", s, len(st.Stages[s]), v.ports)
			}
		}
		v.packets, v.Blocked = st.Packets, st.Blocked
		for s := range st.Stages {
			for i, ps := range st.Stages[s] {
				v.next[s*v.ports+i] = ps.NextFree
			}
		}
		return nil
	default:
		return fmt.Errorf("noc: cannot restore state onto %T", n)
	}
}
