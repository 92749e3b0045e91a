// Package tcam models the content-addressable memory APPROX-NoC builds
// its encoder pattern matching tables (PMTs) from: a ternary CAM whose
// entries carry don't-care masks, so the DI-VAXX encoder matches a value
// against approximate reference patterns in a single search (paper
// §4.2.1, Fig. 8). DI-COMP's encoder PMT is the same TCAM with entries
// that mask no bits — a binary CAM is the all-bits-care case.
//
// The model is behavioural, not electrical: it reproduces single-cycle
// parallel search semantics, entry replacement, and per-operation event
// counts that the power model converts to energy.
//
// Internally the software model exploits the same bit-parallelism the
// hardware match lines do (§4.2.1, Fig. 8): the TCAM keeps bit-sliced
// mismatch planes over 64-entry groups and evaluates a search as a fold
// of plane words followed by a priority encode (bits.TrailingZeros64),
// held behaviourally identical to a linear reference sweep by the
// package's differential tests (naive_test.go; see DESIGN.md §14).
package tcam

import "math/bits"

// Stats counts the operations a TCAM performed, for the energy model.
type Stats struct {
	Searches uint64 // parallel compare of all entries against a key
	Hits     uint64
	Writes   uint64 // entry installs or in-place updates
}

// CAM is a binary content-addressable memory: a view of a TCAM whose
// entries mask no bits, with the same frequency-weighted replacement.
// The dictionary codecs use TCAM directly; CAM stays only for the
// repository benchmark's per-layer CAM lookup timing.
type CAM struct{ t *TCAM }

// NewCAM returns a CAM with capacity size.
func NewCAM(size int) *CAM { return &CAM{NewTCAM(size)} }

// Stats returns the operation counters accumulated so far.
func (c *CAM) Stats() Stats { return c.t.Stats() }

// Lookup searches every entry in parallel for pattern and returns the
// matching index. A hit bumps the entry's frequency counter.
func (c *CAM) Lookup(pattern uint32) (idx int, ok bool) { return c.t.Search(pattern) }

// Insert places pattern into the CAM and returns the index it landed in
// and the pattern that was evicted, if any (see TCAM.Insert).
func (c *CAM) Insert(pattern uint32) (idx int, evicted uint32, hadEviction bool) {
	idx, e, hadEviction := c.t.Insert(TEntry{Value: pattern})
	return idx, e.Value, hadEviction
}

// TEntry is one ternary entry: a stored value plus a don't-care mask.
// Mask bits set to 1 are ignored during matching, i.e. the entry
// represents the pattern family {v : v &^ Mask == Value &^ Mask}.
type TEntry struct {
	Value uint32
	Mask  uint32
}

// Matches reports whether key falls in the entry's pattern family.
func (e TEntry) Matches(key uint32) bool {
	return (key^e.Value)&^e.Mask == 0
}

// Bit-sliced match planes. Entries are grouped 64 to a matchGroup; for
// each of the eight 4-bit digits of a 32-bit key the group keeps sixteen
// mismatch bitmaps, one per digit value: bit i of miss[p][v] is set when
// entry i's care bits within digit p disagree with value v. A search ORs
// one selected word per digit (folding four bit-planes at a time), clears
// the misses from the valid mask, and priority-encodes the lowest
// surviving match line with bits.TrailingZeros64 — the software analogue
// of the hardware's single-cycle parallel match-line evaluation.
const (
	groupShift = 6
	groupSize  = 1 << groupShift
)

type matchGroup struct {
	valid uint64
	miss  [8][16]uint64
}

// set installs (value, mask) at the group-local bit, rebuilding the
// entry's column across every plane.
func (g *matchGroup) set(bit uint, value, mask uint32) {
	b := uint64(1) << bit
	g.valid |= b
	care := ^mask
	for p := uint(0); p < 8; p++ {
		vn := value >> (4 * p) & 0xF
		cn := care >> (4 * p) & 0xF
		row := &g.miss[p]
		for v := uint32(0); v < 16; v++ {
			if (v^vn)&cn != 0 {
				row[v] |= b
			} else {
				row[v] &^= b
			}
		}
	}
}

// clear removes the group-local bit from the valid mask and every plane.
func (g *matchGroup) clear(bit uint) {
	b := uint64(1) << bit
	g.valid &^= b
	for p := range g.miss {
		row := &g.miss[p]
		for v := range row {
			row[v] &^= b
		}
	}
}

// TCAM is a ternary CAM with frequency-weighted replacement. Multiple
// entries may match a key; search returns the first match in priority
// (index) order, matching hardware priority encoders.
type TCAM struct {
	size  int
	valid []bool
	ent   []TEntry
	freq  []uint64
	// groups holds the bit-sliced mismatch planes Search folds.
	groups []matchGroup
	count  int // live valid entries, maintained incrementally
	hi     int // one past the highest valid index; scans stop here
	stats  Stats
}

// NewTCAM returns a TCAM with capacity size.
func NewTCAM(size int) *TCAM {
	if size < 0 {
		panic("tcam: negative TCAM size")
	}
	return &TCAM{
		size:   size,
		valid:  make([]bool, size),
		ent:    make([]TEntry, size),
		freq:   make([]uint64, size),
		groups: make([]matchGroup, (size+groupSize-1)/groupSize),
	}
}

// Stats returns the operation counters accumulated so far.
func (t *TCAM) Stats() Stats { return t.stats }

// setSlot installs entry e at slot i: the stored entry and its column in
// the bit-sliced planes.
func (t *TCAM) setSlot(i int, e TEntry) {
	t.ent[i] = e
	t.groups[i>>groupShift].set(uint(i&(groupSize-1)), e.Value, e.Mask)
}

// clearSlot empties slot i and removes its column from the planes.
func (t *TCAM) clearSlot(i int) {
	t.ent[i] = TEntry{}
	t.groups[i>>groupShift].clear(uint(i & (groupSize - 1)))
}

// refreshHi lowers the scan bound after an invalidation at the top.
func (t *TCAM) refreshHi() {
	for t.hi > 0 && !t.valid[t.hi-1] {
		t.hi--
	}
}

// Search compares key against every entry in parallel and returns the
// lowest matching index. A hit bumps the entry's frequency counter.
//
// The software model folds the bit-sliced mismatch planes — eight
// OR-selected words per 64-entry group — and priority-encodes the lowest
// surviving match line. Group iteration stops at the highest valid index;
// all of it is pure scan elimination, so the result equals a sweep over
// TEntry.Matches and the Stats counters still count one parallel compare
// per call, as hardware compares every line each search regardless.
func (t *TCAM) Search(key uint32) (idx int, ok bool) {
	t.stats.Searches++
	for gi := range t.groups {
		if gi<<groupShift >= t.hi {
			break
		}
		g := &t.groups[gi]
		if g.valid == 0 {
			continue
		}
		miss := g.miss[0][key&0xF] |
			g.miss[1][key>>4&0xF] |
			g.miss[2][key>>8&0xF] |
			g.miss[3][key>>12&0xF] |
			g.miss[4][key>>16&0xF] |
			g.miss[5][key>>20&0xF] |
			g.miss[6][key>>24&0xF] |
			g.miss[7][key>>28&0xF]
		if match := g.valid &^ miss; match != 0 {
			i := gi<<groupShift + bits.TrailingZeros64(match)
			t.freq[i]++
			t.stats.Hits++
			return i, true
		}
	}
	return 0, false
}

// PeekExact returns the index of an entry with exactly this value and mask.
func (t *TCAM) PeekExact(e TEntry) (idx int, ok bool) {
	for i := 0; i < t.hi; i++ {
		if t.valid[i] && t.ent[i] == e {
			return i, true
		}
	}
	return 0, false
}

// Insert installs entry e, reusing an identical existing entry if present
// (its frequency is refreshed instead). Returns the index used, the
// displaced entry if an eviction happened. The victim is the first
// invalid slot, else the lowest-frequency entry (ties: lowest index),
// modelling the frequency-counter-driven replacement of the paper's PMTs.
func (t *TCAM) Insert(e TEntry) (idx int, evicted TEntry, hadEviction bool) {
	if t.size == 0 {
		return 0, TEntry{}, false
	}
	if i, ok := t.PeekExact(e); ok {
		t.freq[i]++
		t.stats.Writes++
		return i, TEntry{}, false
	}
	slot, best := 0, ^uint64(0)
	found := false
	for i := 0; i < t.size; i++ {
		if !t.valid[i] {
			slot, found = i, true
			break
		}
		if t.freq[i] < best {
			best, slot = t.freq[i], i
		}
	}
	if !found && t.valid[slot] {
		evicted, hadEviction = t.ent[slot], true
	} else {
		t.count++
	}
	t.valid[slot] = true
	t.freq[slot] = 1
	t.setSlot(slot, e)
	if slot >= t.hi {
		t.hi = slot + 1
	}
	t.stats.Writes++
	return slot, evicted, hadEviction
}

// InvalidateIndex clears one entry.
func (t *TCAM) InvalidateIndex(i int) {
	if i >= 0 && i < t.size {
		if t.valid[i] {
			t.count--
		}
		t.valid[i] = false
		t.freq[i] = 0
		t.clearSlot(i)
		t.refreshHi()
	}
}

// Entries returns the number of valid entries. The count is maintained
// incrementally by Insert/InvalidateIndex/RestoreSlot, so metrics pay
// O(1) instead of rescanning the valid bits.
func (t *TCAM) Entries() int { return t.count }

// SlotState returns slot i's raw replacement state: the stored entry,
// its frequency counter, and the valid bit. A reused codec reads it to
// find the slots it must empty.
func (t *TCAM) SlotState(i int) (e TEntry, freq uint64, valid bool) {
	if i < 0 || i >= t.size || !t.valid[i] {
		return TEntry{}, 0, false
	}
	return t.ent[i], t.freq[i], true
}

// RestoreSlot overwrites slot i with the given state, bypassing the
// replacement policy — the inverse of SlotState. A reused codec empties
// its table with it.
func (t *TCAM) RestoreSlot(i int, e TEntry, freq uint64, valid bool) {
	if i < 0 || i >= t.size {
		return
	}
	if t.valid[i] {
		t.count--
	}
	t.valid[i] = valid
	if valid {
		t.freq[i] = freq
		t.setSlot(i, e)
		t.count++
		if i >= t.hi {
			t.hi = i + 1
		}
		return
	}
	t.freq[i] = 0
	t.clearSlot(i)
	t.refreshHi()
}

// RestoreStats overwrites the operation counters; a reused codec zeroes
// them with it so its energy accounting starts where a new one's does.
func (t *TCAM) RestoreStats(s Stats) { t.stats = s }
