package compress

import (
	"fmt"

	"approxnoc/internal/approx"
	"approxnoc/internal/quality"
	"approxnoc/internal/tcam"
	"approxnoc/internal/value"
)

// DictConfig parameterizes the dictionary-based schemes (Fig. 7/8).
type DictConfig struct {
	// Nodes is the network size; encoder entries keep one index slot per
	// destination and decoder entries one valid bit per source.
	Nodes int
	// Entries is the PMT capacity (Table 1 default: 8).
	Entries int
	// CandidateCap bounds the decoder's recurrent-pattern tracker.
	CandidateCap int
	// PromoteThreshold is how many sightings promote a candidate into the
	// decoder PMT.
	PromoteThreshold int
	// PendingCap bounds concurrent evictions awaiting invalidate acks.
	PendingCap int
	// AgingPeriod is how many decoded words pass between halvings of
	// the decoder frequency counters. 0 selects the default of 4096.
	AgingPeriod int
}

// DefaultDictConfig returns the Table 1 dictionary parameters for an
// n-node network.
func DefaultDictConfig(n int) DictConfig {
	return DictConfig{Nodes: n, Entries: 8, CandidateCap: 32, PromoteThreshold: 4, PendingCap: 4}
}

// maxEntries bounds the PMT capacity: an encoder's per-destination slot
// holds the decoder index in 16 bits (destRef).
const maxEntries = 1 << 16

// decoder frequency counters are halved every agingPeriod decoded words so
// formerly-hot patterns can age out of the PMT instead of pinning it.
const agingPeriod = 4096

func (c *DictConfig) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("compress: dict config needs Nodes > 0, got %d", c.Nodes)
	}
	if c.Entries <= 0 || c.Entries > maxEntries {
		return fmt.Errorf("compress: dict config needs Entries in [1,%d], got %d", maxEntries, c.Entries)
	}
	if c.CandidateCap <= 0 {
		c.CandidateCap = 4 * c.Entries
	}
	if c.PromoteThreshold <= 0 {
		c.PromoteThreshold = 2
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 4
	}
	if c.AgingPeriod < 0 {
		return fmt.Errorf("compress: dict config needs AgingPeriod >= 0, got %d", c.AgingPeriod)
	}
	if c.AgingPeriod == 0 {
		c.AgingPeriod = agingPeriod
	}
	return nil
}

func indexBits(entries int) int {
	b := 0
	for 1<<b < entries {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// candidateTable is the decoder's bounded recurrent-pattern tracker: a
// small LFU table counting raw word sightings. The decoder consults it
// for every raw word, so the lookup is tuned for that stream: pattern
// and data type pack into one 64-bit key (a single compare per entry,
// one cache stream), and the same pass that misses also finds the
// coldest entry so a full-table replacement — the common case under a
// transient pattern stream — needs no second sweep. A hash-map variant
// measured slower: the stream is replacement-heavy, and per-sighting
// hashing plus delete/insert churn cost more than the short scan.
type candidateTable struct {
	keys  []uint64 // pattern | dtype<<32
	count []uint64
	// victim caches the index of the first count-1 entry, or -1 when
	// unknown. Counts never decrease, so once established it stays the
	// first count-1 index until that entry itself is bumped or indices
	// shift (drop), letting back-to-back replacements — the common case
	// under a transient stream — skip the min scan. The replacement
	// choice is identical with or without the cache, so a reset (which
	// makes it unknown) cannot change what the table does.
	victim int
}

func candKey(p value.Word, dt value.DataType) uint64 {
	return uint64(p) | uint64(dt)<<32
}

// init empties the table onto buf, whose halves hold the keys and the
// counts of at most len(buf)/2 candidates, so it never grows.
func (t *candidateTable) init(buf []uint64) {
	n := len(buf) / 2
	t.keys, t.count = buf[:0:n], buf[n:n:2*n]
	t.reset()
}

// reset empties the table in place.
func (t *candidateTable) reset() {
	t.keys, t.count, t.victim = t.keys[:0], t.count[:0], -1
}

// bump records one sighting and returns the updated count. The key
// search touches only the packed key slice — one load and compare per
// entry — so tracked-pattern sightings never read the counts; the
// victim scan runs only when a miss must replace in a full table.
func (t *candidateTable) bump(p value.Word, dt value.DataType) int {
	k := candKey(p, dt)
	for i, q := range t.keys {
		if q == k {
			t.count[i]++
			if i == t.victim {
				t.victim = -1 // no longer count 1
			}
			return int(t.count[i])
		}
	}
	if len(t.keys) < cap(t.keys) {
		t.keys = append(t.keys, k)
		t.count = append(t.count, 1)
		return 1
	}
	// Replace the coldest candidate: the first minimal-count index. When
	// the minimum is 1 that is the first count-1 index, which the cache
	// remembers; otherwise a full scan finds it, and the replaced slot —
	// then the only count-1 entry — becomes the new cached victim.
	v := t.victim
	if v < 0 {
		best := t.count[0]
		v = 0
		for i := 1; i < len(t.count); i++ {
			if t.count[i] < best {
				v, best = i, t.count[i]
			}
		}
		t.victim = v
	}
	t.keys[v], t.count[v] = k, 1
	return 1
}

// drop removes a candidate (after promotion).
func (t *candidateTable) drop(p value.Word, dt value.DataType) {
	k := candKey(p, dt)
	for i, q := range t.keys {
		if q == k {
			last := len(t.keys) - 1
			t.keys[i], t.count[i] = t.keys[last], t.count[last]
			t.keys = t.keys[:last]
			t.count = t.count[:last]
			t.victim = -1 // indices shifted
			return
		}
	}
}

// destRef is one encoder-PMT per-destination slot: the encoded index the
// destination decoder assigned, plus the original pattern recorded there
// (Fig. 8's "idx / op" pairs; for exact DI-COMP orig always equals the
// entry pattern). Eight bytes: a 32-node table row is 256.
type destRef struct {
	orig  value.Word
	idx   uint16
	valid bool
}

// decEntry is one decoder-PMT row (Fig. 7b): pattern and frequency
// counter; the valid bits naming every encoder that maps it are the
// row's bits in dictCodec.validBits.
type decEntry struct {
	freq    uint64
	pattern value.Word
	dtype   value.DataType
	valid   bool
	locked  bool // eviction handshake in progress
}

// pendingInstall tracks an eviction awaiting invalidate acks before the
// slot can be reused for a newly promoted pattern. The encoders it
// awaits are the slot's bits in dictCodec.awaiting: a slot has at most
// one eviction in flight.
type pendingInstall struct {
	slot      int
	pattern   value.Word
	dtype     value.DataType
	requester int // source node that triggered the promotion
}

// bitset is a fixed set of node ids: bit i%64 of word i/64.
type bitset []uint64

func (s bitset) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s bitset) add(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s bitset) remove(i int)   { s[i/64] &^= 1 << uint(i%64) }

// empty reports whether no bit is set.
func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// dictCodec implements DI-COMP (avcl == nil) and DI-VAXX (avcl != nil).
type dictCodec struct {
	scheme  Scheme
	node    int
	cfg     DictConfig
	idxBits int
	avcl    *approx.AVCL
	budget  quality.Budget

	// Encoder side: one TCAM PMT plus per-slot side storage for the
	// per-destination index vectors. DI-VAXX stores AVCL don't-care
	// families; DI-COMP's entries mask no bits, which makes the TCAM the
	// binary CAM the paper gives it (§4.2.1).
	pmt     tcam.TCAM
	encDest []destRef // [slot*Nodes+dst]

	// Decoder side. validBits and awaiting hold one row of setWords
	// words per decoder slot: the encoders that map the slot, and the
	// encoders whose invalidate acks the slot's pending eviction awaits.
	dec       []decEntry
	validBits bitset
	awaiting  bitset
	setWords  int
	cands     candidateTable
	pending   []pendingInstall // capacity PendingCap

	scratch encodeScratch
	// notifs is the storage of the last notification batch returned.
	notifs []Notification

	stats          OpStats
	decodeMismatch uint64
}

// NewDIVaxxWindowed returns DI-VAXX with the §7 windowed cumulative
// error budget: TCAM don't-care families are computed at boost times the
// threshold, and the budget keeps the mean window error at the nominal
// per-word level.
func NewDIVaxxWindowed(node int, cfg DictConfig, thresholdPct, window int, boost float64) (Codec, error) {
	boosted, b, err := windowBudget(thresholdPct, window, boost)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if node < 0 || node >= cfg.Nodes {
		return nil, fmt.Errorf("compress: node %d outside [0,%d)", node, cfg.Nodes)
	}
	d := new(dictCodec)
	d.init(DIVaxx, node, cfg, boosted, b)
	return d, nil
}

// init makes d the empty codec of scheme s at node under the validated
// cfg, with budget b and, for DI-VAXX, an AVCL at avclPct (in range): a
// new codec and a recycled one leave it alike. Every field init does not
// carry over starts at its zero value, as in a new codec; the tables
// carry over, emptied, when d has tables of cfg's shape, and the encode
// scratch and notification storage keep only their capacity.
func (d *dictCodec) init(s Scheme, node int, cfg DictConfig, avclPct int, b quality.Budget) {
	if d.cfg.Nodes == cfg.Nodes && d.cfg.Entries == cfg.Entries &&
		d.cfg.CandidateCap == cfg.CandidateCap && d.cfg.PendingCap == cfg.PendingCap {
		d.emptyTables()
	} else {
		d.makeTables(cfg)
	}
	*d = dictCodec{
		scheme:    s,
		node:      node,
		cfg:       cfg,
		idxBits:   indexBits(cfg.Entries),
		avcl:      vaxxAVCL(d.avcl, s, avclPct),
		budget:    b,
		pmt:       d.pmt,
		encDest:   d.encDest,
		dec:       d.dec,
		validBits: d.validBits,
		awaiting:  d.awaiting,
		setWords:  d.setWords,
		cands:     d.cands,
		pending:   d.pending,
		scratch:   d.scratch.kept(),
		notifs:    d.notifs[:0],
	}
}

// makeTables sizes every table for cfg, each one flat allocation, so the
// codec never grows one: the node sets and the candidate tracker share
// one.
func (d *dictCodec) makeTables(cfg DictConfig) {
	words := (cfg.Nodes + 63) / 64
	sets := cfg.Entries * words
	buf := make([]uint64, 2*sets+2*cfg.CandidateCap)
	d.pmt = *tcam.NewTCAM(cfg.Entries)
	d.encDest = make([]destRef, cfg.Entries*cfg.Nodes)
	d.dec = make([]decEntry, cfg.Entries)
	d.validBits = buf[:sets:sets]
	d.awaiting = buf[sets : 2*sets : 2*sets]
	d.setWords = words
	d.cands.init(buf[2*sets:])
	d.pending = make([]pendingInstall, 0, cfg.PendingCap)
}

// emptyTables leaves the tables as makeTables makes them. An invalid TCAM
// slot holds no entry, frequency or plane bit, so emptying the valid ones
// empties the TCAM.
func (d *dictCodec) emptyTables() {
	for i := range d.dec {
		if _, _, valid := d.pmt.SlotState(i); valid {
			d.pmt.RestoreSlot(i, tcam.TEntry{}, 0, false)
		}
	}
	d.pmt.RestoreStats(tcam.Stats{})
	clear(d.encDest)
	clear(d.dec)
	clear(d.validBits)
	clear(d.awaiting)
	d.cands.reset()
	d.pending = d.pending[:0]
}

// dests is encoder slot's row of per-destination refs.
func (d *dictCodec) dests(slot int) []destRef {
	return d.encDest[slot*d.cfg.Nodes : (slot+1)*d.cfg.Nodes]
}

// row is decoder slot's row of a per-slot node set.
func (d *dictCodec) row(s bitset, slot int) bitset {
	return s[slot*d.setWords : (slot+1)*d.setWords]
}

func (d *dictCodec) Scheme() Scheme { return d.scheme }

// --- Encoder ---------------------------------------------------------------

func (d *dictCodec) Compress(dst int, blk *value.Block) *Encoded {
	d.scratch.w.Reset()
	return d.compress(dst, blk, &d.scratch.enc, &d.scratch.w)
}

func (d *dictCodec) compress(dst int, blk *value.Block, enc *Encoded, w *bitWriter) *Encoded {
	// Worst case every word goes raw: 1 flag bit + 32 data bits.
	w.grow(33 * len(blk.Words))
	d.stats.BlocksIn++
	d.stats.WordsIn += uint64(len(blk.Words))
	d.stats.BitsIn += uint64(32 * len(blk.Words))

	for _, word := range blk.Words {
		d.stats.EncodeOps++
		kind, idx, decoded := d.encodeWord(dst, word, blk)
		if d.budget != nil {
			d.budget.Advance()
		}
		if kind == RawWord {
			w.WriteBits(0, 1)
			w.WriteBits(word, 32)
		} else {
			w.WriteBits(1, 1)
			w.WriteBits(uint32(idx), d.idxBits)
		}
		switch kind {
		case RawWord:
			d.stats.WordsRaw++
		case ExactWord:
			d.stats.WordsExact++
		case ApproxWord:
			d.stats.WordsApprox++
			d.stats.SumRelError += value.RelError(word, decoded, blk.DType)
		}
	}

	d.stats.BitsOut += uint64(w.Len())
	*enc = Encoded{
		Scheme:       d.scheme,
		NumWords:     len(blk.Words),
		DType:        blk.DType,
		Approximable: blk.Approximable,
		Bits:         w.Len(),
		Payload:      w.Bytes(),
	}
	return enc
}

// encodeWord searches the encoder PMT for one word. On a hit it returns
// the decoder-PMT index to transmit and the word the decoder will
// reconstruct from it; a raw word's idx is unused and decoded is word.
// DI-COMP's entries mask no bits, so its hits are always exact.
func (d *dictCodec) encodeWord(dst int, word value.Word, blk *value.Block) (kind WordKind, idx int, decoded value.Word) {
	slot, ok := d.pmt.Search(word)
	if !ok {
		return RawWord, 0, word
	}
	ref := d.encDest[slot*d.cfg.Nodes+dst]
	if !ref.valid {
		return RawWord, 0, word
	}
	if ref.orig == word {
		return ExactWord, int(ref.idx), word
	}
	// A TCAM family match does not guarantee the recovered pattern equals
	// the transmitted word (§4.2.1), so precise traffic needs the
	// original-pattern comparison above to succeed, and so do special
	// floats (the exponent detection bypass).
	if !blk.Approximable || blk.DType == value.Float32 && value.IsSpecialFloat(word) {
		return RawWord, 0, word
	}
	// Online error control before committing the approximation (the
	// windowed budget is the §7 extension).
	if d.budget == nil || !d.budget.Allow(value.RelError(word, ref.orig, blk.DType)) {
		return RawWord, 0, word
	}
	return ApproxWord, int(ref.idx), ref.orig
}

// --- Decoder ---------------------------------------------------------------

func (d *dictCodec) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	blk := value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	return blk, d.DecompressInto(blk, src, enc)
}

func (d *dictCodec) DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification {
	r := newBitReader(enc.Payload)
	words := decodeTarget(dst, enc)
	out := d.batch()
	for i := range words {
		d.stats.DecodeOps++
		if r.ReadBits(1) == 1 {
			idx := int(r.ReadBits(d.idxBits))
			if idx < len(d.dec) && d.dec[idx].valid {
				words[i] = d.dec[idx].pattern
				d.dec[idx].freq++
			} else {
				d.decodeMismatch++
			}
			continue
		}
		word := r.ReadBits(32)
		words[i] = word
		out = d.observeRawWord(out, src, word, enc.DType)
	}
	d.stats.BlocksDecoded++
	before := d.stats.WordsDecoded
	d.stats.WordsDecoded += uint64(enc.NumWords)
	period := uint64(d.cfg.AgingPeriod)
	if before/period != d.stats.WordsDecoded/period {
		d.ageFrequencies()
	}
	return d.send(out)
}

// batch is the notification storage, emptied. It is made on first use
// with room for an invalidate to every node, so a batch seldom outgrows
// it, whichever nodes a reused codec served before.
func (d *dictCodec) batch() []Notification {
	if d.notifs == nil {
		d.notifs = make([]Notification, 0, d.cfg.Nodes)
	}
	return d.notifs[:0]
}

// send counts out as sent and keeps its storage for the next batch (see
// Codec.HandleNotification for the ownership rule).
func (d *dictCodec) send(out []Notification) []Notification {
	d.stats.NotificationsSent += uint64(len(out))
	d.notifs = out
	return out
}

// ageFrequencies halves every decoder-PMT frequency counter so the
// eviction guard in promote can eventually displace patterns whose phase
// has passed.
func (d *dictCodec) ageFrequencies() {
	for slot := range d.dec {
		d.dec[slot].freq /= 2
	}
}

// invalidate appends an invalidate of decoder slot for every encoder
// that maps it to out, makes those encoders the slot's awaiting set, and
// reports whether there are any.
func (d *dictCodec) invalidate(out []Notification, slot int) ([]Notification, bool) {
	e := &d.dec[slot]
	mapped, awaiting := d.row(d.validBits, slot), d.row(d.awaiting, slot)
	copy(awaiting, mapped)
	for encNode := 0; encNode < d.cfg.Nodes; encNode++ {
		if mapped.has(encNode) {
			out = append(out, Notification{
				From: d.node, To: encNode, Kind: NotifInvalidate,
				Pattern: e.pattern, DType: e.dtype, Index: slot,
			})
		}
	}
	return out, !awaiting.empty()
}

// observeRawWord runs the decoder-side recurrent pattern detection on one
// uncompressed word from src and appends any protocol messages to send to
// out.
func (d *dictCodec) observeRawWord(out []Notification, src int, word value.Word, dt value.DataType) []Notification {
	// Already tracked? Extend the mapping to this encoder if needed.
	for slot := range d.dec {
		e := &d.dec[slot]
		if e.valid && !e.locked && e.pattern == word && e.dtype == dt {
			e.freq++
			if mapped := d.row(d.validBits, slot); !mapped.has(src) {
				mapped.add(src)
				out = append(out, Notification{
					From: d.node, To: src, Kind: NotifUpdate,
					Pattern: word, DType: dt, Index: slot,
				})
			}
			return out
		}
	}
	count := d.cands.bump(word, dt)
	if count < d.cfg.PromoteThreshold {
		return out
	}
	return d.promote(out, src, word, dt, count)
}

// promote installs a newly frequent pattern, evicting a victim with the
// invalidate/ack handshake when the PMT is full. The candidate only
// displaces an entry that is colder than the candidate itself, which
// keeps genuinely hot patterns resident and bounds notification churn.
func (d *dictCodec) promote(out []Notification, src int, word value.Word, dt value.DataType, count int) []Notification {
	// Free slot?
	for slot := range d.dec {
		if !d.dec[slot].valid && !d.dec[slot].locked {
			d.cands.drop(word, dt)
			return d.install(out, slot, src, word, dt)
		}
	}
	if len(d.pending) >= d.cfg.PendingCap {
		return out // too many evictions in flight; retry on a later sighting
	}
	// Victim: coldest unlocked entry.
	victim, best, found := 0, ^uint64(0), false
	for slot := range d.dec {
		e := &d.dec[slot]
		if e.valid && !e.locked && e.freq < best {
			victim, best, found = slot, e.freq, true
		}
	}
	if !found {
		return out
	}
	if best >= uint64(count) {
		return out // the candidate is not hotter than the coldest entry yet
	}
	d.cands.drop(word, dt)
	out, awaited := d.invalidate(out, victim)
	if !awaited {
		// No encoder ever mapped it; reuse immediately.
		d.dec[victim].valid = false
		return d.install(out, victim, src, word, dt)
	}
	d.dec[victim].locked = true
	d.pending = append(d.pending, pendingInstall{
		slot: victim, pattern: word, dtype: dt, requester: src,
	})
	return out
}

func (d *dictCodec) install(out []Notification, slot, src int, word value.Word, dt value.DataType) []Notification {
	e := &d.dec[slot]
	e.valid = true
	e.locked = false
	e.pattern = word
	e.dtype = dt
	e.freq = 1
	mapped := d.row(d.validBits, slot)
	clear(mapped)
	mapped.add(src)
	d.stats.TableWrites++
	return append(out, Notification{
		From: d.node, To: src, Kind: NotifUpdate,
		Pattern: word, DType: dt, Index: slot,
	})
}

// --- Protocol --------------------------------------------------------------

func (d *dictCodec) HandleNotification(n Notification) []Notification {
	d.stats.NotificationsRecv++
	out := d.batch()
	switch n.Kind {
	case NotifUpdate:
		d.handleUpdate(n)
	case NotifInvalidate:
		d.handleInvalidate(n)
		out = append(out, Notification{From: d.node, To: n.From, Kind: NotifInvalidateAck, Index: n.Index, Pattern: n.Pattern})
	case NotifInvalidateAck:
		out = d.handleAck(out, n)
	}
	return d.send(out)
}

// handleUpdate installs a (pattern -> decoder index) mapping for the
// decoder at n.From into this node's encoder PMT. The entry is the
// pattern's AVCL don't-care family for DI-VAXX (APCL, §4.2.1) and the
// pattern itself for DI-COMP; MaskWord's bypass mask is 0 too.
func (d *dictCodec) handleUpdate(n Notification) {
	var mask uint32
	if d.avcl != nil {
		mask, _ = d.avcl.MaskWord(n.Pattern, n.DType)
	}
	slot, _, evicted := d.pmt.Insert(tcam.TEntry{Value: n.Pattern &^ mask, Mask: mask})
	if evicted {
		d.clearSlot(slot)
	}
	d.dests(slot)[n.From] = destRef{valid: true, idx: uint16(n.Index), orig: n.Pattern}
	d.stats.TableWrites++
}

func (d *dictCodec) clearSlot(slot int) { clear(d.dests(slot)) }

// handleInvalidate drops this encoder's mapping for decoder n.From's
// index n.Index. Tolerates the mapping being already gone (the encoder may
// have evicted the entry locally).
func (d *dictCodec) handleInvalidate(n Notification) {
	for slot := range d.dec {
		dests := d.dests(slot)
		ref := &dests[n.From]
		if ref.valid && int(ref.idx) == n.Index {
			*ref = destRef{}
			// Invalidate the whole encoder entry if no destination uses it.
			inUse := false
			for i := range dests {
				if dests[i].valid {
					inUse = true
					break
				}
			}
			if !inUse {
				d.pmt.InvalidateIndex(slot)
			}
			return
		}
	}
}

// handleAck completes a pending eviction once every encoder confirmed,
// appending the install's update to out.
func (d *dictCodec) handleAck(out []Notification, n Notification) []Notification {
	for i := range d.pending {
		p := &d.pending[i]
		if p.slot != n.Index {
			continue
		}
		awaiting := d.row(d.awaiting, p.slot)
		awaiting.remove(n.From)
		if !awaiting.empty() {
			return out
		}
		slot, src, pat, dt := p.slot, p.requester, p.pattern, p.dtype
		d.pending = append(d.pending[:i], d.pending[i+1:]...)
		d.dec[slot].valid = false
		d.dec[slot].locked = false
		return d.install(out, slot, src, pat, dt)
	}
	return out
}

// DecodeMismatches reports compressed words that referenced an invalid
// decoder entry — zero under the in-order delivery the NI guarantees.
func (d *dictCodec) DecodeMismatches() uint64 { return d.decodeMismatch }

// DictMapping is one live encoder-PMT mapping toward a destination: the
// decoder-PMT index that destination assigned and the original pattern
// recorded alongside it (the "idx / op" pair of Fig. 8). Exported for
// the oracle's PMT-synchronization audit.
type DictMapping struct {
	Index   int
	Pattern value.Word
}

// DictIntrospector exposes the dictionary tables for invariant checks;
// internal/oracle audits encoder/decoder synchronization through it.
// The views are read-only snapshots and must not be used on the hot
// path.
type DictIntrospector interface {
	// EncoderMappings lists this codec's valid encoder-PMT mappings
	// toward destination node dst.
	EncoderMappings(dst int) []DictMapping
	// DecoderEntry returns decoder-PMT row idx.
	DecoderEntry(idx int) (pattern value.Word, dt value.DataType, valid bool)
	// DecoderMapsEncoder reports whether decoder row idx carries the
	// valid bit for encoder node encNode.
	DecoderMapsEncoder(idx, encNode int) bool
}

// EncoderMappings implements DictIntrospector.
func (d *dictCodec) EncoderMappings(dst int) []DictMapping {
	if dst < 0 || dst >= d.cfg.Nodes {
		return nil
	}
	var out []DictMapping
	for slot := range d.dec {
		if ref := d.dests(slot)[dst]; ref.valid {
			out = append(out, DictMapping{Index: int(ref.idx), Pattern: ref.orig})
		}
	}
	return out
}

// DecoderEntry implements DictIntrospector.
func (d *dictCodec) DecoderEntry(idx int) (value.Word, value.DataType, bool) {
	if idx < 0 || idx >= len(d.dec) || !d.dec[idx].valid {
		return 0, 0, false
	}
	e := &d.dec[idx]
	return e.pattern, e.dtype, true
}

// DecoderMapsEncoder implements DictIntrospector.
func (d *dictCodec) DecoderMapsEncoder(idx, encNode int) bool {
	if idx < 0 || idx >= len(d.dec) || encNode < 0 || encNode >= d.cfg.Nodes {
		return false
	}
	return d.dec[idx].valid && d.row(d.validBits, idx).has(encNode)
}

func (d *dictCodec) Stats() OpStats {
	s := d.stats
	// One engine serves both schemes; the power model prices DI-COMP's
	// searches as binary-CAM searches.
	searches := d.pmt.Stats().Searches
	if d.avcl == nil {
		s.CamSearches += searches
	} else {
		s.TcamSearches += searches
		as := d.avcl.Stats()
		s.AVCLMaskHits += as.MaskHits
		s.AVCLClips += as.Clips
		s.AVCLBypasses += as.Bypasses
	}
	return s
}
