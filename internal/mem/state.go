package mem

// Checkpoint state capture (internal/ckpt). The memory system's state is
// the cache-slice contents (tags, dirty bits and recency order — data
// values live host-side in this timing-directed model), the DRAM
// channels' port and row-buffer state, all statistics counters, and the
// per-module fault stream positions. Geometry (set count, associativity,
// channel wiring) is configuration, rebuilt by NewSystem on restore, not
// state.

import (
	"fmt"

	"xmtfft/internal/sim"
)

// LineState is one cache line's serializable state. Used orders the
// valid lines of a set by recency (larger is more recent); only the
// order matters.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Used  uint64
}

// ModuleState is one memory module's serializable state. Lines is
// flattened set-major (set 0's ways first). UseTick is at least every
// Used stamp in Lines.
type ModuleState struct {
	Port    sim.PortState
	Lines   []LineState
	UseTick uint64

	Hits       uint64
	Misses     uint64
	Writebacks uint64
	QueueDelay uint64
	Prefetches uint64

	FaultStream  uint64 // stream position; meaningful only when faulted
	ECCCorrected uint64
	ECCUncorrect uint64
	SilentFaults uint64
}

// ChannelState is one DRAM channel's serializable state.
type ChannelState struct {
	Port    sim.PortState
	OpenRow uint64
	HasRow  bool

	RowHits   uint64
	RowMisses uint64
	Bytes     uint64
}

// SystemState is the whole memory system's serializable state.
type SystemState struct {
	Prefetch bool
	Faulted  bool
	Modules  []ModuleState
	Channels []ChannelState
}

// CaptureState captures the system's state. Call it only when the
// machine is quiescent (no access in flight).
func (s *System) CaptureState() SystemState {
	st := SystemState{
		Prefetch: s.Prefetch,
		Faulted:  s.faulted,
		Modules:  make([]ModuleState, len(s.modules)),
		Channels: make([]ChannelState, len(s.channels)),
	}
	for i := range s.modules {
		m := &s.modules[i]
		ms := ModuleState{
			Port:         m.port.State(),
			UseTick:      ways,
			Hits:         m.hits,
			Misses:       m.misses,
			Writebacks:   m.writebacks,
			QueueDelay:   m.queueDelay,
			Prefetches:   m.prefetches,
			ECCCorrected: m.eccCorrected,
			ECCUncorrect: m.eccUncorrect,
			SilentFaults: m.silentFaults,
			Lines:        make([]LineState, setsPerMM*ways),
		}
		if m.faultStream != nil {
			ms.FaultStream = m.faultStream.State()
		}
		for j, w := range s.moduleTags(i) {
			if w&validBit != 0 {
				// Position 0 of a set is its most recently used way.
				ms.Lines[j] = LineState{Tag: w >> tagShift, Valid: true,
					Dirty: w&dirtyBit != 0, Used: uint64(ways - j%ways)}
			}
		}
		st.Modules[i] = ms
	}
	for i, ch := range s.channels {
		st.Channels[i] = ChannelState{
			Port:    ch.port.State(),
			OpenRow: ch.openRow,
			HasRow:  ch.hasRow,
			RowHits: ch.RowHits, RowMisses: ch.RowMisses, Bytes: ch.Bytes,
		}
	}
	return st
}

// RestoreState restores a captured state onto a system built from the
// same configuration. If the captured run had DRAM fault injection
// armed, the caller must have armed this system with the same plan
// first (EnableFaults owns the rate parameters; this method restores
// only the stream positions).
func (s *System) RestoreState(st SystemState) error {
	if len(st.Modules) != len(s.modules) {
		return fmt.Errorf("mem: restore with %d module states onto %d modules", len(st.Modules), len(s.modules))
	}
	if len(st.Channels) != len(s.channels) {
		return fmt.Errorf("mem: restore with %d channel states onto %d channels", len(st.Channels), len(s.channels))
	}
	if st.Faulted != s.faulted {
		return fmt.Errorf("mem: restore fault-injection mismatch (checkpoint faulted=%v, system faulted=%v); arm EnableFaults with the captured plan before restoring", st.Faulted, s.faulted)
	}
	for i := range st.Modules {
		ms := &st.Modules[i]
		if len(ms.Lines) != setsPerMM*ways {
			return fmt.Errorf("mem: restore module %d with %d lines, geometry has %d", i, len(ms.Lines), setsPerMM*ways)
		}
		for _, l := range ms.Lines {
			if l.Valid && l.Tag >= 1<<(64-tagShift) {
				return fmt.Errorf("mem: restore module %d with line tag %#x beyond the address space", i, l.Tag)
			}
		}
	}
	for i := range s.modules {
		m := &s.modules[i]
		ms := &st.Modules[i]
		m.port.RestoreState(ms.Port)
		m.hits, m.misses, m.writebacks = ms.Hits, ms.Misses, ms.Writebacks
		m.queueDelay, m.prefetches = ms.QueueDelay, ms.Prefetches
		m.eccCorrected, m.eccUncorrect, m.silentFaults = ms.ECCCorrected, ms.ECCUncorrect, ms.SilentFaults
		if m.faultStream != nil {
			m.faultStream.SetState(ms.FaultStream)
		}
		tags := s.moduleTags(i)
		for k := 0; k < len(tags); k += ways {
			restoreSet(tags[k:k+ways], ms.Lines[k:k+ways])
		}
	}
	for i := range s.channels {
		ch := &s.channels[i]
		cs := &st.Channels[i]
		ch.port.RestoreState(cs.Port)
		ch.openRow, ch.hasRow = cs.OpenRow, cs.HasRow
		ch.RowHits, ch.RowMisses, ch.Bytes = cs.RowHits, cs.RowMisses, cs.Bytes
	}
	s.Prefetch = st.Prefetch
	return nil
}

// restoreSet packs one set's captured lines into its ways: valid lines
// first, most recently used (largest Used) first, ties in captured
// order; invalid lines last.
func restoreSet(set []uint64, lines []LineState) {
	var order [ways]int
	n := 0
	for j, l := range lines {
		if !l.Valid {
			continue
		}
		// Insertion sort by descending Used; equal stamps keep their order.
		p := n
		for p > 0 && lines[order[p-1]].Used < l.Used {
			order[p] = order[p-1]
			p--
		}
		order[p] = j
		n++
	}
	for p := range set {
		set[p] = 0
		if p < n {
			l := lines[order[p]]
			set[p] = l.Tag<<tagShift | validBit
			if l.Dirty {
				set[p] |= dirtyBit
			}
		}
	}
}
