package xmt

import (
	"xmtfft/internal/config"
	"xmtfft/internal/trace"
)

// The workload suite shared by the machine's differential tests (fault,
// live-metrics and snapshot): the same machine configuration and
// workload run with and without an observer or an inert fault plan must
// produce bit-identical results.

// diffWorkload is one workload of the suite.
type diffWorkload struct {
	name     string
	threads  int
	prefetch bool
	prog     ProgramFunc
}

// diffWorkloads builds the suite for a config with the given TCU count.
// Thread counts exceed the machine width so the prefix-sum reallocation
// path (multi-wave dynamics) is exercised.
func diffWorkloads(tcus int) []diffWorkload {
	return []diffWorkload{
		{name: "compute", threads: 3*tcus + 5, prog: func(id int, buf []Op) []Op {
			return append(buf, ALU(3+id%4), FLOP(8+id%7), ALU(2), FLOP(5))
		}},
		{name: "streaming-loads", threads: 2*tcus + 3, prog: func(id int, buf []Op) []Op {
			base := uint64(id) * 4 * config.CacheLineBytes
			for k := 0; k < 6; k++ {
				buf = append(buf, Load(base+uint64(k)*8))
			}
			return append(buf, FLOP(4))
		}},
		{name: "strided-loads-prefetch", threads: 2 * tcus, prefetch: true,
			prog: func(id int, buf []Op) []Op {
				base := uint64(id) * 16 * config.CacheLineBytes
				for k := 0; k < 4; k++ {
					buf = append(buf, Load(base+uint64(k)*config.CacheLineBytes))
				}
				return append(buf, FLOP(2))
			}},
		{name: "store-heavy", threads: 2*tcus + 1, prog: func(id int, buf []Op) []Op {
			base := uint64(id) * 6 * 8
			buf = append(buf, FLOP(3))
			for k := 0; k < 6; k++ {
				buf = append(buf, Store(base+uint64(k)*8))
			}
			return buf
		}},
		{name: "mixed", threads: 4*tcus + 7, prog: func(id int, buf []Op) []Op {
			base := uint64(id%64) * 3 * config.CacheLineBytes
			buf = append(buf, ALU(2), PS(), Load(base), Load(base+8))
			buf = append(buf, FLOP(6), Store(base+16), PS(), FLOP(1))
			return buf
		}},
	}
}

// suiteRun is everything comparable from one pass over the suite:
// per-spawn results, final counters, and the trace stream.
type suiteRun struct {
	results []SpawnResult
	ctrs    interface{}
	events  []trace.Event
	samples []trace.Sample
}
