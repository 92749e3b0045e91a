// Package tcam models the content-addressable memories APPROX-NoC builds
// its pattern matching tables (PMTs) from: a binary CAM for exact pattern
// lookups (FP-COMP priority matching, DI-COMP decoder tables) and a ternary
// CAM whose entries carry don't-care masks, used by the DI-VAXX encoder to
// match a value against approximate reference patterns in a single search
// (paper §4.2.1, Fig. 8).
//
// The models are behavioural, not electrical: they reproduce single-cycle
// parallel search semantics, entry replacement, and per-operation event
// counts that the power model converts to energy.
//
// Internally the software model exploits the same bit-parallelism the
// hardware match lines do (§4.2.1, Fig. 8): the TCAM keeps bit-sliced
// mismatch planes over 64-entry groups and evaluates a search as a fold
// of plane words followed by a priority encode (bits.TrailingZeros64),
// and the CAM keeps a hash index for O(1) exact lookups. Both are held
// behaviourally identical to linear reference sweeps by the package's
// differential tests (naive_test.go; see DESIGN.md §14).
package tcam

import "math/bits"

// Stats counts the operations a CAM/TCAM performed, for the energy model.
type Stats struct {
	Searches uint64 // parallel compare of all entries against a key
	Hits     uint64
	Writes   uint64 // entry installs or in-place updates
}

// CAM is a binary content-addressable memory with frequency-weighted
// replacement. Entries are 32-bit patterns; the zero-size CAM matches
// nothing and accepts nothing.
type CAM struct {
	size    int
	valid   []bool
	pattern []uint32
	freq    []uint64
	// index is the shadow hash index: pattern -> lowest valid slot
	// holding it. Normal operation keeps patterns unique among valid
	// entries (Insert refreshes duplicates in place), but RestoreSlot can
	// write arbitrary snapshots, so the maintenance helpers preserve the
	// lowest-index invariant even under duplicates.
	index map[uint32]int
	count int // live valid entries, maintained incrementally
	hi    int // one past the highest valid index; scans stop here
	stats Stats
}

// NewCAM returns a CAM with capacity size.
func NewCAM(size int) *CAM {
	if size < 0 {
		panic("tcam: negative CAM size")
	}
	return &CAM{
		size:    size,
		valid:   make([]bool, size),
		pattern: make([]uint32, size),
		freq:    make([]uint64, size),
		index:   make(map[uint32]int, size),
	}
}

// refreshHi lowers the scan bound after an invalidation at the top.
func (c *CAM) refreshHi() {
	for c.hi > 0 && !c.valid[c.hi-1] {
		c.hi--
	}
}

// indexAdd records slot i as holding pattern, keeping the lowest-index
// mapping when another valid slot already holds the same pattern.
func (c *CAM) indexAdd(pattern uint32, i int) {
	if j, ok := c.index[pattern]; !ok || i < j {
		c.index[pattern] = i
	}
}

// indexRemove drops slot i's claim on pattern. If i was the indexed slot
// a linear rescan re-establishes the lowest remaining valid holder — the
// duplicate case only arises through RestoreSlot, and invalidations are
// off the search hot path.
func (c *CAM) indexRemove(pattern uint32, i int) {
	if j, ok := c.index[pattern]; !ok || j != i {
		return
	}
	delete(c.index, pattern)
	for k := 0; k < c.hi; k++ {
		if k != i && c.valid[k] && c.pattern[k] == pattern {
			c.index[pattern] = k
			return
		}
	}
}

// Size returns the entry capacity.
func (c *CAM) Size() int { return c.size }

// Stats returns the operation counters accumulated so far.
func (c *CAM) Stats() Stats { return c.stats }

// Lookup searches every entry in parallel for pattern and returns the
// matching index. A hit bumps the entry's frequency counter.
//
// The software model answers from the hash index in O(1); the Stats
// counters still count one parallel compare per call, as the hardware
// performs it regardless of occupancy.
func (c *CAM) Lookup(pattern uint32) (idx int, ok bool) {
	c.stats.Searches++
	if i, ok := c.index[pattern]; ok {
		c.freq[i]++
		c.stats.Hits++
		return i, true
	}
	return 0, false
}

// Peek is Lookup without touching frequency or stats — for assertions.
func (c *CAM) Peek(pattern uint32) (idx int, ok bool) {
	if i, ok := c.index[pattern]; ok {
		return i, true
	}
	return 0, false
}

// Insert places pattern into the CAM and returns the index it landed in and
// the entry that was evicted, if any. If the pattern is already present its
// frequency is refreshed instead. Replacement victim is the lowest-frequency
// valid entry (ties: lowest index), modelling the frequency-counter-driven
// replacement of the paper's PMTs.
func (c *CAM) Insert(pattern uint32) (idx int, evicted uint32, hadEviction bool) {
	if c.size == 0 {
		return 0, 0, false
	}
	if i, ok := c.Peek(pattern); ok {
		c.freq[i]++
		c.stats.Writes++
		return i, 0, false
	}
	slot := c.victim()
	if c.valid[slot] {
		evicted, hadEviction = c.pattern[slot], true
		c.indexRemove(evicted, slot)
	} else {
		c.count++
	}
	c.valid[slot] = true
	c.pattern[slot] = pattern
	c.freq[slot] = 1
	c.indexAdd(pattern, slot)
	if slot >= c.hi {
		c.hi = slot + 1
	}
	c.stats.Writes++
	return slot, evicted, hadEviction
}

func (c *CAM) victim() int {
	slot, best := 0, ^uint64(0)
	for i := 0; i < c.size; i++ {
		if !c.valid[i] {
			return i
		}
		if c.freq[i] < best {
			best, slot = c.freq[i], i
		}
	}
	return slot
}

// InvalidateIndex clears one entry.
func (c *CAM) InvalidateIndex(i int) {
	if i >= 0 && i < c.size {
		if c.valid[i] {
			c.indexRemove(c.pattern[i], i)
			c.count--
		}
		c.valid[i] = false
		c.freq[i] = 0
		c.refreshHi()
	}
}

// Entries returns the number of valid entries. The count is maintained
// incrementally by Insert/InvalidateIndex/RestoreSlot, so metrics and GC
// sweeps pay O(1) instead of rescanning the valid bits.
func (c *CAM) Entries() int { return c.count }

// Freq returns the frequency counter of entry i (0 when invalid).
func (c *CAM) Freq(i int) uint64 {
	if i < 0 || i >= c.size || !c.valid[i] {
		return 0
	}
	return c.freq[i]
}

// SlotState returns slot i's raw replacement state for serialization:
// the stored pattern, its frequency counter, and the valid bit.
func (c *CAM) SlotState(i int) (pattern uint32, freq uint64, valid bool) {
	if i < 0 || i >= c.size || !c.valid[i] {
		return 0, 0, false
	}
	return c.pattern[i], c.freq[i], true
}

// RestoreSlot overwrites slot i with serialized state, bypassing the
// replacement policy — the snapshot codec's inverse of SlotState.
func (c *CAM) RestoreSlot(i int, pattern uint32, freq uint64, valid bool) {
	if i < 0 || i >= c.size {
		return
	}
	if c.valid[i] {
		c.indexRemove(c.pattern[i], i)
		c.count--
	}
	c.valid[i] = valid
	if valid {
		c.pattern[i], c.freq[i] = pattern, freq
		c.indexAdd(pattern, i)
		c.count++
		if i >= c.hi {
			c.hi = i + 1
		}
		return
	}
	c.pattern[i], c.freq[i] = 0, 0
	c.refreshHi()
}

// RestoreStats overwrites the operation counters — used when restoring
// a snapshot so energy accounting continues from the captured totals.
func (c *CAM) RestoreStats(s Stats) { c.stats = s }

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

// Size returns the entry capacity.
func (t *TCAM) Size() int { return t.size }

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

// refreshHi lowers the scan bound after an invalidation at the top —
// the shared form of the loop InvalidateIndex and RestoreSlot used to
// carry separately, mirroring CAM.refreshHi.
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

// Insert installs entry e, reusing an identical existing entry if present.
// Returns the index used, the displaced entry if an eviction happened.
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

// EntryAt returns the entry stored at index i.
func (t *TCAM) EntryAt(i int) (TEntry, bool) {
	if i < 0 || i >= t.size || !t.valid[i] {
		return TEntry{}, false
	}
	return t.ent[i], true
}

// Entries returns the number of valid entries. The count is maintained
// incrementally by Insert/InvalidateIndex/RestoreSlot, so metrics and GC
// sweeps pay O(1) instead of rescanning the valid bits.
func (t *TCAM) Entries() int { return t.count }

// Freq returns the frequency counter of entry i (0 when invalid).
func (t *TCAM) Freq(i int) uint64 {
	if i < 0 || i >= t.size || !t.valid[i] {
		return 0
	}
	return t.freq[i]
}

// SlotState returns slot i's raw replacement state for serialization:
// the stored entry, its frequency counter, and the valid bit.
func (t *TCAM) SlotState(i int) (e TEntry, freq uint64, valid bool) {
	if i < 0 || i >= t.size || !t.valid[i] {
		return TEntry{}, 0, false
	}
	return t.ent[i], t.freq[i], true
}

// RestoreSlot overwrites slot i with serialized state, bypassing the
// replacement policy — the snapshot codec's inverse of SlotState.
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

// RestoreStats overwrites the operation counters — used when restoring
// a snapshot so energy accounting continues from the captured totals.
func (t *TCAM) RestoreStats(s Stats) { t.stats = s }
