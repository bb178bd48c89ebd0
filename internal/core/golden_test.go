package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/noc"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// Golden bit-identity pins for the detailed simulator. Each case runs a
// small 3D transform and compares every timing-visible outcome with
// values recorded before the hot-path data layout of the event queue,
// the cache tags and the butterfly switch ports was flattened. Any
// change to event order, cache replacement or port arbitration moves at
// least one of these numbers; a pure layout change moves none.

// goldenOutcome is everything a case pins.
type goldenOutcome struct {
	Cycles     uint64
	Counters   stats.Counters
	Events     uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	QueueDelay uint64
	RowHits    uint64
	RowMisses  uint64
	ModuleLoad uint64 // FNV-1a of the per-module port busy counts
	Blocked    uint64 // butterfly switch blocking (0 on a pure MoT)
}

type goldenCase struct {
	name           string
	cfg            func() config.Config
	dims           [3]int
	prefetchFaults bool // prefetch on, DRAM and NoC faults armed
	want           goldenOutcome
}

// goldenPlan arms DRAM bit errors and NoC drops/corruption together.
func goldenPlan() fault.Plan {
	return fault.Plan{Seed: 11, NoCDrop: 0.01, NoCCorrupt: 0.005, DRAMBitErr: 0.002, DRAMDoubleBitErr: 0.0005}
}

// fillTest seeds a transform's input with a fixed deterministic pattern.
func fillTest(data []complex64) {
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
}

func scaledConfig(base func() config.Config, tcus int) func() config.Config {
	return func() config.Config {
		cfg, err := base().Scaled(tcus)
		if err != nil {
			panic(err)
		}
		return cfg
	}
}

func runGolden(t *testing.T, c goldenCase) goldenOutcome {
	t.Helper()
	m, err := xmt.New(c.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.prefetchFaults {
		m.EnablePrefetch(true)
		if err := m.EnableFaults(goldenPlan()); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := New3D(m, c.dims[0], c.dims[1], c.dims[2])
	if err != nil {
		t.Fatal(err)
	}
	fillTest(tr.Data)
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.Memory()
	out := goldenOutcome{
		Cycles:     run.TotalCycles(),
		Counters:   m.Counters,
		Events:     m.SimStats().Events,
		Hits:       ms.Hits(),
		Misses:     ms.Misses(),
		Writebacks: ms.Writebacks(),
		QueueDelay: ms.QueueDelay(),
	}
	out.RowHits, out.RowMisses = ms.RowBufferStats()
	h := fnv.New64a()
	for _, v := range ms.ModuleLoad() {
		_ = binary.Write(h, binary.LittleEndian, v)
	}
	out.ModuleLoad = h.Sum64()
	net := m.Network()
	if r, ok := net.(*noc.Reliable); ok {
		net = r.Inner()
	}
	if hy, ok := net.(*noc.Hybrid); ok {
		out.Blocked = hy.Blocked
	}
	return out
}

func TestGoldenBitIdentity(t *testing.T) {
	fourK := scaledConfig(config.FourK, 512)
	sixtyFourK := scaledConfig(config.SixtyFourK, 2048)
	cases := []goldenCase{
		{name: "4k/serial", cfg: fourK, dims: [3]int{32, 32, 32},
			want: goldenOutcome{
				Cycles: 162822, Events: 111336, Hits: 1075087, Misses: 31889, Writebacks: 11078, QueueDelay: 329525044, RowHits: 11067, RowMisses: 31900, ModuleLoad: 4682595499926708635, Blocked: 0,
				Counters: stats.Counters{FPOps: 2219520, ALUOps: 591336, Loads: 713040, Stores: 393936, PSOps: 33792, Threads: 37248, Spawns: 12, CacheHits: 1075087, CacheMisses: 31889, DRAMBytes: 1374944, NoCPackets: 1820016, RowHits: 11067, RowMisses: 31900}}},
		{name: "4k/serial/prefetch+faults", cfg: fourK, dims: [3]int{32, 32, 32}, prefetchFaults: true,
			want: goldenOutcome{
				Cycles: 162730, Events: 111336, Hits: 1083348, Misses: 23628, Writebacks: 11084, QueueDelay: 332178960, RowHits: 11117, RowMisses: 31900, ModuleLoad: 4682595499926708635, Blocked: 0,
				Counters: stats.Counters{FPOps: 2219520, ALUOps: 591336, Loads: 713040, Stores: 393936, PSOps: 33792, Threads: 37248, Spawns: 12, CacheHits: 1083348, CacheMisses: 23628, DRAMBytes: 1376544, NoCPackets: 1836906, Prefetches: 8305, RowHits: 11117, RowMisses: 31900, NoCDropped: 11230, NoCCorrupted: 5660, NoCRetransmits: 16890, ECCCorrected: 38, ECCUncorrectable: 9}}},
		{name: "64k/serial", cfg: sixtyFourK, dims: [3]int{64, 64, 32},
			want: goldenOutcome{
				Cycles: 238366, Events: 347040, Hits: 4363728, Misses: 129712, Writebacks: 44491, QueueDelay: 4120623050, RowHits: 26733, RowMisses: 147470, ModuleLoad: 14187320005201698344, Blocked: 302663460,
				Counters: stats.Counters{FPOps: 10057728, ALUOps: 1841056, Loads: 2917696, Stores: 1575744, PSOps: 102400, Threads: 116224, Spawns: 12, CacheHits: 4363728, CacheMisses: 129712, DRAMBytes: 5574496, NoCPackets: 7411136, RowHits: 26733, RowMisses: 147470}}},
		{name: "64k/serial/prefetch+faults", cfg: sixtyFourK, dims: [3]int{64, 64, 32}, prefetchFaults: true,
			want: goldenOutcome{
				Cycles: 238758, Events: 347040, Hits: 4407762, Misses: 85678, Writebacks: 44480, QueueDelay: 4145055557, RowHits: 27457, RowMisses: 147081, ModuleLoad: 14187320005201698344, Blocked: 344888396,
				Counters: stats.Counters{FPOps: 10057728, ALUOps: 1841056, Loads: 2917696, Stores: 1575744, PSOps: 102400, Threads: 116224, Spawns: 12, CacheHits: 4407762, CacheMisses: 85678, DRAMBytes: 5585216, NoCPackets: 7479625, Prefetches: 44380, RowHits: 27457, RowMisses: 147081, NoCDropped: 45661, NoCCorrupted: 22828, NoCRetransmits: 68489, ECCCorrected: 170, ECCUncorrectable: 49}}},
		{name: "64k-full/serial", cfg: config.SixtyFourK, dims: [3]int{32, 32, 32},
			want: goldenOutcome{
				Cycles: 40741, Events: 205824, Hits: 1222656, Misses: 18432, Writebacks: 0, QueueDelay: 56684340, RowHits: 0, RowMisses: 18432, ModuleLoad: 12595427635228840269, Blocked: 1696117092,
				Counters: stats.Counters{FPOps: 3194880, ALUOps: 783360, Loads: 755712, Stores: 485376, Threads: 86016, Spawns: 12, CacheHits: 1222656, CacheMisses: 18432, DRAMBytes: 589824, NoCPackets: 1996800, RowMisses: 18432}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := runGolden(t, c)
			if got != c.want {
				t.Errorf("outcome differs from the recorded golden values\n got: %+v\nwant: %+v", got, c.want)
			}
		})
	}
}
