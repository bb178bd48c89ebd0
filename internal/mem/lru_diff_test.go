package mem

import (
	"math/rand"
	"sort"
	"testing"

	"xmtfft/internal/config"
)

// Differential test of the packed most-recently-used tag layout against
// the timestamp-LRU cache model it replaced: per-way (tag, valid, dirty,
// used) records, a per-module use tick bumped on every access and fill,
// and a victim that is the first invalid way (scanning from way 1) or
// else the way with the smallest stamp. Random access streams with
// writes, prefetches, flushes, invalidations and checkpoint restores —
// including restores from states whose Used stamps are shuffled across
// positions — must make the same hit, eviction and writeback decisions
// and leave the same lines resident in the same recency order.

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

// refCache is the timestamp-LRU model, one set array per module.
type refCache struct {
	sets                                 [][][]refLine // [module][set][way]
	useTick                              []uint64
	hits, misses, writebacks, prefetches uint64
}

func newRefCache(modules int) *refCache {
	r := &refCache{sets: make([][][]refLine, modules), useTick: make([]uint64, modules)}
	for m := range r.sets {
		r.sets[m] = make([][]refLine, setsPerMM)
		for s := range r.sets[m] {
			r.sets[m][s] = make([]refLine, ways)
		}
	}
	return r
}

func (r *refCache) set(mi int, tag uint64) []refLine {
	return r.sets[mi][tag&(setsPerMM-1)]
}

func refVictim(set []refLine) int {
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	return victim
}

func (r *refCache) access(mi int, addr uint64, write bool) bool {
	tag := addr / config.CacheLineBytes
	set := r.set(mi, tag)
	r.useTick[mi]++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = r.useTick[mi]
			if write {
				set[i].dirty = true
			}
			r.hits++
			return true
		}
	}
	r.misses++
	v := refVictim(set)
	if set[v].valid && set[v].dirty {
		r.writebacks++
	}
	set[v] = refLine{tag: tag, valid: true, dirty: write, used: r.useTick[mi]}
	return false
}

func (r *refCache) prefetch(mi int, addr uint64) {
	tag := addr / config.CacheLineBytes
	set := r.set(mi, tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return
		}
	}
	v := refVictim(set)
	if set[v].valid && set[v].dirty {
		r.writebacks++
	}
	r.prefetches++
	r.useTick[mi]++
	set[v] = refLine{tag: tag, valid: true, used: r.useTick[mi]}
}

func (r *refCache) flush() int {
	n := 0
	for m := range r.sets {
		for s := range r.sets[m] {
			for w := range r.sets[m][s] {
				if l := &r.sets[m][s][w]; l.valid && l.dirty {
					l.dirty = false
					n++
					r.writebacks++
				}
			}
		}
	}
	return n
}

func (r *refCache) invalidate() {
	for m := range r.sets {
		for s := range r.sets[m] {
			for w := range r.sets[m][s] {
				r.sets[m][s][w] = refLine{}
			}
		}
	}
}

// residentLine is one valid line as the comparison sees it.
type residentLine struct {
	tag   uint64
	dirty bool
}

// byRecency lists a set's valid lines, most recently used first.
func byRecency(lines []LineState) []residentLine {
	valid := make([]LineState, 0, len(lines))
	for _, l := range lines {
		if l.Valid {
			valid = append(valid, l)
		}
	}
	sort.SliceStable(valid, func(i, j int) bool { return valid[i].Used > valid[j].Used })
	out := make([]residentLine, len(valid))
	for i, l := range valid {
		out[i] = residentLine{l.Tag, l.Dirty}
	}
	return out
}

// refLines renders the reference's set as LineStates.
func (r *refCache) lines(mi, s int) []LineState {
	out := make([]LineState, ways)
	for w, l := range r.sets[mi][s] {
		out[w] = LineState{Tag: l.tag, Valid: l.valid, Dirty: l.dirty, Used: l.used}
	}
	return out
}

func compareCaches(t *testing.T, step int, sys *System, ref *refCache) {
	t.Helper()
	if sys.Hits() != ref.hits || sys.Misses() != ref.misses ||
		sys.Writebacks() != ref.writebacks || sys.Prefetches() != ref.prefetches {
		t.Fatalf("step %d: hits/misses/writebacks/prefetches = %d/%d/%d/%d, reference %d/%d/%d/%d", step,
			sys.Hits(), sys.Misses(), sys.Writebacks(), sys.Prefetches(),
			ref.hits, ref.misses, ref.writebacks, ref.prefetches)
	}
	st := sys.CaptureState()
	for mi, ms := range st.Modules {
		for s := 0; s < setsPerMM; s++ {
			got := byRecency(ms.Lines[s*ways : (s+1)*ways])
			want := byRecency(ref.lines(mi, s))
			if len(got) != len(want) {
				t.Fatalf("step %d: module %d set %d holds %v, reference %v", step, mi, s, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: module %d set %d holds %v, reference %v", step, mi, s, got, want)
				}
			}
		}
	}
}

// shuffledState returns sys's state with every set's lines taken from
// the reference, relabelled with fresh increasing Used stamps (same
// order, random gaps) and placed at random positions within the set.
func shuffledState(rng *rand.Rand, sys *System, ref *refCache) SystemState {
	st := sys.CaptureState()
	for mi := range st.Modules {
		var tick uint64
		for s := 0; s < setsPerMM; s++ {
			lines := ref.lines(mi, s)
			order := make([]int, 0, ways)
			for w, l := range lines {
				if l.Valid {
					order = append(order, w)
				}
			}
			sort.Slice(order, func(i, j int) bool { return lines[order[i]].Used < lines[order[j]].Used })
			for _, w := range order {
				tick += 1 + uint64(rng.Intn(1000))
				lines[w].Used = tick
			}
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			copy(st.Modules[mi].Lines[s*ways:], lines)
		}
		st.Modules[mi].UseTick = tick
	}
	return st
}

// restoreRef loads a captured state into the reference model.
func (r *refCache) restore(st SystemState) {
	for mi, ms := range st.Modules {
		for s := 0; s < setsPerMM; s++ {
			for w := 0; w < ways; w++ {
				l := ms.Lines[s*ways+w]
				r.sets[mi][s][w] = refLine{tag: l.Tag, valid: l.Valid, dirty: l.Dirty, used: l.Used}
			}
		}
		r.useTick[mi] = ms.UseTick
	}
}

func TestPackedCacheMatchesTimestampLRU(t *testing.T) {
	cfg := smallCfg(t)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Prefetch = seed%2 == 0
		ref := newRefCache(sys.Modules())
		// A small pool of lines crowding a few sets, so most accesses
		// contend for ways and evictions are frequent.
		addr := func() uint64 {
			tag := uint64(rng.Intn(3)) | uint64(rng.Intn(64))<<8
			return tag*config.CacheLineBytes + uint64(rng.Intn(8))*4
		}
		var now uint64
		for step := 0; step < 6000; step++ {
			now += uint64(rng.Intn(4))
			switch op := rng.Intn(1000); {
			case op < 700:
				a, write := addr(), rng.Intn(3) == 0
				mi := HashAddress(a, sys.Modules())
				viaAccess := rng.Intn(2) == 0
				var hit bool
				if viaAccess {
					hit = sys.Access(now, a, write).Hit
				} else {
					res, _ := sys.accessModule(mi, now, a, write)
					hit = res.Hit
				}
				if want := ref.access(mi, a, write); hit != want {
					t.Fatalf("seed %d step %d: hit = %v, reference %v", seed, step, hit, want)
				}
				if viaAccess && !hit && sys.Prefetch {
					// Access fills the next line; accessModule never does.
					next := a + config.CacheLineBytes
					ref.prefetch(HashAddress(next, sys.Modules()), next)
				}
			case op < 900:
				a := addr()
				mi := HashAddress(a, sys.Modules())
				sys.prefetchInto(mi, now, a)
				ref.prefetch(mi, a)
			case op < 930:
				if got, want := sys.Flush(), ref.flush(); got != want {
					t.Fatalf("seed %d step %d: Flush = %d, reference %d", seed, step, got, want)
				}
			case op < 940:
				sys.Invalidate()
				ref.invalidate()
			case op < 970:
				// Round trip through a fresh system.
				fresh, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.RestoreState(sys.CaptureState()); err != nil {
					t.Fatal(err)
				}
				sys = fresh
			default:
				st := shuffledState(rng, sys, ref)
				if err := sys.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				ref.restore(st)
			}
			if step%100 == 0 {
				compareCaches(t, step, sys, ref)
			}
		}
		compareCaches(t, -1, sys, ref)
		if ref.writebacks == 0 || ref.prefetches == 0 || ref.hits == 0 {
			t.Fatalf("seed %d: stream too tame: %d writebacks, %d prefetches, %d hits", seed, ref.writebacks, ref.prefetches, ref.hits)
		}
	}
}

// TestRestoreRejectsUnpackableTag checks that a checkpointed tag too
// large for a packed way is refused rather than truncated.
func TestRestoreRejectsUnpackableTag(t *testing.T) {
	sys, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	st := sys.CaptureState()
	st.Modules[1].Lines[5] = LineState{Tag: 1 << 62, Valid: true, Used: 1}
	if err := sys.RestoreState(st); err == nil {
		t.Fatal("restore accepted a tag beyond the address space")
	}
}
