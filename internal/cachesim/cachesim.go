// Package cachesim is the coherent-cache substrate standing in for the
// paper's Pin-based tool (§5.4): per-core private L1 data caches over a
// shared backing store. Every remote L1 miss models a data response from
// the block's home node, and that response passes through the caller's
// transfer function — an APPROX-NoC codec fabric or a round trip through
// the cycle-accurate NoC — so approximable program data is perturbed
// exactly where the paper perturbs it, in transit, before the
// application ever reads it.
//
// The paper's configuration is modelled directly: 16 cores, 64 KB two-way
// private L1s with 64 B lines, hand-annotated approximable data regions.
package cachesim

import (
	"fmt"

	"approxnoc/internal/value"
)

// Config sizes the cache system.
type Config struct {
	// Cores is the number of cores/private caches (paper: 16).
	Cores int
	// MemBytes is the backing store capacity.
	MemBytes int
	// L1Bytes is the per-core data cache capacity (paper: 64 KB).
	L1Bytes int
	// Ways is the set associativity (paper: 2).
	Ways int
	// LineBytes is the cache line size (paper: 64).
	LineBytes int
}

// DefaultConfig returns the paper's §5.4 cache parameters.
func DefaultConfig() Config {
	return Config{
		Cores:     16,
		MemBytes:  1 << 24, // 16 MiB backing store
		L1Bytes:   64 << 10,
		Ways:      2,
		LineBytes: 64,
	}
}

// Stats counts cache and transfer activity.
type Stats struct {
	Loads       uint64
	Stores      uint64
	Hits        uint64
	Misses      uint64
	Transfers   uint64 // miss fills that crossed the channel
	LocalFills  uint64 // miss fills homed at the requesting core
	Invalidates uint64
}

// region is an annotated approximable address range.
type region struct {
	start, end uint32
	dtype      value.DataType
}

type line struct {
	valid bool
	tag   uint32
	data  []byte
	lru   uint64
}

type cache struct {
	sets [][]line
}

// TransferFn moves a block from its home node to the requesting core and
// returns what the core observes: the application harness passes a codec
// fabric's Transfer, the full-system harness a round trip through the
// cycle-accurate NoC.
type TransferFn func(home, core int, blk *value.Block) *value.Block

// System is the assembled cache simulator.
type System struct {
	cfg      Config
	backing  []byte
	caches   []*cache
	transfer TransferFn
	regions  []region
	next     uint32 // allocation cursor
	tick     uint64 // LRU clock
	stats    Stats
}

// New builds a system whose remote miss fills go through transfer.
func New(cfg Config, transfer TransferFn) (*System, error) {
	if transfer == nil {
		return nil, fmt.Errorf("cachesim: nil transfer function")
	}
	if cfg.Cores <= 0 || cfg.MemBytes <= 0 || cfg.L1Bytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cachesim: invalid config %+v", cfg)
	}
	if cfg.LineBytes%4 != 0 {
		return nil, fmt.Errorf("cachesim: line size %d not word aligned", cfg.LineBytes)
	}
	lines := cfg.L1Bytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	s := &System{
		cfg:      cfg,
		backing:  make([]byte, cfg.MemBytes),
		caches:   make([]*cache, cfg.Cores),
		transfer: transfer,
		next:     uint32(cfg.LineBytes), // keep address 0 unused
	}
	sets := lines / cfg.Ways
	for i := range s.caches {
		c := &cache{sets: make([][]line, sets)}
		for j := range c.sets {
			c.sets[j] = make([]line, cfg.Ways)
		}
		s.caches[i] = c
	}
	return s, nil
}

// Stats returns the access counters.
func (s *System) Stats() Stats { return s.stats }

// Cores returns the configured core count.
func (s *System) Cores() int { return s.cfg.Cores }

// Alloc reserves n bytes, line aligned, and returns the base address.
func (s *System) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("cachesim: allocation of %d bytes", n)
	}
	lb := uint32(s.cfg.LineBytes)
	size := (uint32(n) + lb - 1) / lb * lb
	if int(s.next)+int(size) > len(s.backing) {
		return 0, fmt.Errorf("cachesim: out of memory (%d requested, %d free)", size, len(s.backing)-int(s.next))
	}
	addr := s.next
	s.next += size
	return addr, nil
}

// MarkApproximable annotates [addr, addr+n) as approximable data of the
// given type — the hand annotation of §5.1.
func (s *System) MarkApproximable(addr uint32, n int, dt value.DataType) {
	s.regions = append(s.regions, region{start: addr, end: addr + uint32(n), dtype: dt})
}

// approxInfo reports whether a whole line falls inside one approximable
// region (the paper compresses a block approximately only when all its
// words are approximable).
func (s *System) approxInfo(lineAddr uint32) (value.DataType, bool) {
	end := lineAddr + uint32(s.cfg.LineBytes)
	for _, r := range s.regions {
		if lineAddr >= r.start && end <= r.end {
			return r.dtype, true
		}
	}
	return value.Int32, false
}

func (s *System) lineOf(addr uint32) uint32 { return addr / uint32(s.cfg.LineBytes) }

// homeOf interleaves block homes across cores, so most fills cross the
// channel.
func (s *System) homeOf(lineAddr uint32) int {
	return int(lineAddr/uint32(s.cfg.LineBytes)) % s.cfg.Cores
}

// access returns the cached line for addr at core, filling on a miss.
func (s *System) access(core int, addr uint32, store bool) *line {
	if store {
		s.stats.Stores++
	} else {
		s.stats.Loads++
	}
	c := s.caches[core]
	lineAddr := addr &^ (uint32(s.cfg.LineBytes) - 1)
	set := int(s.lineOf(addr)) % len(c.sets)
	tag := s.lineOf(addr)
	s.tick++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			s.stats.Hits++
			l.lru = s.tick
			return l
		}
	}
	// Miss: choose an LRU victim and fill through the channel. Stores are
	// write-through, so evicted lines never hold dirty data.
	s.stats.Misses++
	victim := &c.sets[set][0]
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.lru = s.tick
	victim.data = s.fill(core, lineAddr)
	return victim
}

// fill fetches a block from its home node, through the transfer function
// when the home is another core.
func (s *System) fill(core int, lineAddr uint32) []byte {
	words := s.cfg.LineBytes / 4
	blk := value.NewBlock(words, value.Int32, false)
	for i := 0; i < words; i++ {
		blk.Words[i] = readWord(s.backing, lineAddr+uint32(4*i))
	}
	if dt, ok := s.approxInfo(lineAddr); ok {
		blk.DType = dt
		blk.Approximable = true
	}
	home := s.homeOf(lineAddr)
	if home == core {
		s.stats.LocalFills++
	} else {
		s.stats.Transfers++
		blk = s.transfer(home, core, blk)
	}
	data := make([]byte, s.cfg.LineBytes)
	for i, w := range blk.Words {
		putWord(data, 4*i, w)
	}
	return data
}

// invalidateOthers drops the block from every cache but core's — the
// write-invalidate coherence action.
func (s *System) invalidateOthers(core int, addr uint32) {
	tag := s.lineOf(addr)
	for ci, c := range s.caches {
		if ci == core {
			continue
		}
		set := int(tag) % len(c.sets)
		for i := range c.sets[set] {
			l := &c.sets[set][i]
			if l.valid && l.tag == tag {
				l.valid = false
				s.stats.Invalidates++
			}
		}
	}
}

// LoadWord reads a 4-byte word through core's cache.
func (s *System) LoadWord(core int, addr uint32) value.Word {
	s.check(core, addr)
	l := s.access(core, addr, false)
	off := int(addr % uint32(s.cfg.LineBytes))
	return readWord(l.data, uint32(off))
}

// StoreWord writes a 4-byte word through core's cache (write-through to
// backing, invalidating other copies).
func (s *System) StoreWord(core int, addr uint32, w value.Word) {
	s.check(core, addr)
	l := s.access(core, addr, true)
	off := int(addr % uint32(s.cfg.LineBytes))
	putWord(l.data, off, w)
	putWord(s.backing, int(addr), w) // write-through: backing always current
	s.invalidateOthers(core, addr)
}

func (s *System) check(core int, addr uint32) {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("cachesim: core %d out of range", core))
	}
	if addr%4 != 0 {
		panic(fmt.Sprintf("cachesim: unaligned word address %#x", addr))
	}
	if int(addr)+4 > len(s.backing) {
		panic(fmt.Sprintf("cachesim: address %#x out of bounds", addr))
	}
}

// LoadF32 reads a float32 through core's cache.
func (s *System) LoadF32(core int, addr uint32) float32 {
	return value.FromF32(s.LoadWord(core, addr))
}

// StoreF32 writes a float32 through core's cache.
func (s *System) StoreF32(core int, addr uint32, v float32) {
	s.StoreWord(core, addr, value.F32(v))
}

// LoadI32 reads an int32 through core's cache.
func (s *System) LoadI32(core int, addr uint32) int32 {
	return value.FromI32(s.LoadWord(core, addr))
}

// StoreI32 writes an int32 through core's cache.
func (s *System) StoreI32(core int, addr uint32, v int32) {
	s.StoreWord(core, addr, value.I32(v))
}

func readWord(b []byte, off uint32) value.Word {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func putWord(b []byte, off int, w value.Word) {
	b[off] = byte(w)
	b[off+1] = byte(w >> 8)
	b[off+2] = byte(w >> 16)
	b[off+3] = byte(w >> 24)
}
