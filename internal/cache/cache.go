// Package cache implements the generic set-associative cache structure
// shared by the V-cache, R-cache and TLB: geometry/bit arithmetic, tag
// probes, and victim selection with pluggable replacement and a
// victim-preference hook (used for the paper's relaxed inclusion rule,
// "replace a block with the inclusion bit clear if there is one").
//
// The cache is metadata-only and generic over the per-line payload type, so
// each level attaches its own control bits (dirty, swapped-valid, inclusion
// subentries, pointers) without duplicating the set machinery.
package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
)

// Policy selects the replacement algorithm used when no invalid way exists.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a replacement-policy token ("lru", "fifo", "random") to
// its Policy; the empty token selects the default, LRU.
func ParsePolicy(tok string) (Policy, error) {
	switch tok {
	case "lru", "":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (lru, fifo, random)", tok)
	}
}

// Geometry describes a cache's shape. All sizes are in bytes and must be
// powers of two; Assoc of 1 is direct-mapped.
type Geometry struct {
	Size  uint64 // total data capacity
	Block uint64 // block (line) size
	Assoc int    // ways per set
}

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	if !addr.IsPow2(g.Size) {
		return fmt.Errorf("cache: size %d is not a power of two", g.Size)
	}
	if !addr.IsPow2(g.Block) {
		return fmt.Errorf("cache: block size %d is not a power of two", g.Block)
	}
	if g.Assoc < 1 || !addr.IsPow2(uint64(g.Assoc)) {
		return fmt.Errorf("cache: associativity %d is not a positive power of two", g.Assoc)
	}
	if g.Block*uint64(g.Assoc) > g.Size {
		return fmt.Errorf("cache: size %d too small for %d ways of %d-byte blocks",
			g.Size, g.Assoc, g.Block)
	}
	return nil
}

// Sets returns the number of sets.
func (g Geometry) Sets() int {
	return int(g.Size / (g.Block * uint64(g.Assoc)))
}

// BlockBits returns log2(block size).
func (g Geometry) BlockBits() uint { return addr.MustLog2(g.Block) }

// SetBits returns log2(number of sets).
func (g Geometry) SetBits() uint { return addr.MustLog2(uint64(g.Sets())) }

// BlockNum returns the block number of byte address a.
func (g Geometry) BlockNum(a uint64) uint64 { return a >> g.BlockBits() }

// Locate maps a byte address to its (set, tag) pair. The tag is the block
// number with the set-index bits stripped, so (set, tag) uniquely names a
// block-aligned address.
func (g Geometry) Locate(a uint64) (set int, tag uint64) {
	block := g.BlockNum(a)
	return int(block & uint64(g.Sets()-1)), block >> g.SetBits()
}

// BlockAddr reconstructs the block-aligned byte address of (set, tag).
func (g Geometry) BlockAddr(set int, tag uint64) uint64 {
	return (tag<<g.SetBits() | uint64(set)) << g.BlockBits()
}

// String renders the geometry as "16K/16B/2-way".
func (g Geometry) String() string {
	return fmt.Sprintf("%s/%dB/%d-way", sizeLabel(g.Size), g.Block, g.Assoc)
}

func sizeLabel(n uint64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// way is one tag-store entry; the payload L carries level-specific bits.
type way[L any] struct {
	tag   uint64
	valid bool
	stamp uint64 // recency (LRU) or insertion order (FIFO)
	line  L
}

// countingSource wraps a rand source and counts the values drawn from it,
// so a restored cache can fast-forward a fresh source to the same position
// regardless of how many draws each Intn call consumed internally.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// Cache is a generic set-associative tag store.
//
// Sets are materialized lazily: construction allocates only the set index,
// and a set's way array is carved from a slab chunk the first time the set
// is filled (or has a victim chosen). Probes of never-filled sets miss on a
// nil slice with no extra branch. This matters for design-space sweeps: a
// short probe trace through a large cache touches a small fraction of the
// sets, so constructing and zeroing the full tag store up front dominated
// multi-configuration sweep time.
type Cache[L any] struct {
	geom   Geometry
	policy Policy
	sets   [][]way[L]
	slab   []way[L] // backing for lazily materialized sets
	clock  uint64
	rng    *rand.Rand
	rngSrc *countingSource
	seed   int64

	// Shift/mask fields derived from geom at construction, so the
	// per-access Locate/BlockNum arithmetic never recomputes a logarithm.
	blockBits uint
	setBits   uint
	setMask   uint64
}

// slabSets is the number of sets' worth of ways per slab chunk (capped at
// the cache's set count, so tiny caches never over-allocate).
const slabSets = 64

// materialize returns set's way array, carving it out of the slab on first
// use.
func (c *Cache[L]) materialize(set int) []way[L] {
	ws := c.sets[set]
	if ws != nil {
		return ws
	}
	a := c.geom.Assoc
	if len(c.slab) < a {
		n := slabSets
		if s := len(c.sets); s < n {
			n = s
		}
		c.slab = make([]way[L], a*n)
	}
	ws = c.slab[:a:a]
	c.slab = c.slab[a:]
	c.sets[set] = ws
	return ws
}

// New builds a cache with the given geometry, replacement policy and (for
// Random replacement) deterministic seed.
func New[L any](g Geometry, policy Policy, seed int64) (*Cache[L], error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]way[L], g.Sets())
	src := &countingSource{src: rand.NewSource(seed)}
	return &Cache[L]{
		geom:      g,
		policy:    policy,
		sets:      sets,
		rng:       rand.New(src),
		rngSrc:    src,
		seed:      seed,
		blockBits: g.BlockBits(),
		setBits:   g.SetBits(),
		setMask:   uint64(g.Sets() - 1),
	}, nil
}

// MustNew is New but panics on error, for configurations fixed at build
// time.
func MustNew[L any](g Geometry, policy Policy, seed int64) *Cache[L] {
	c, err := New[L](g, policy, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's shape.
func (c *Cache[L]) Geometry() Geometry { return c.geom }

// BlockNum returns the block number of byte address a using the shift
// precomputed at construction.
func (c *Cache[L]) BlockNum(a uint64) uint64 { return a >> c.blockBits }

// Locate maps a byte address to its (set, tag) pair. It is equivalent to
// Geometry.Locate but uses the cached shift and mask fields, keeping the
// per-reference path free of log2 computation.
func (c *Cache[L]) Locate(a uint64) (set int, tag uint64) {
	block := a >> c.blockBits
	return int(block & c.setMask), block >> c.setBits
}

// BlockAddr reconstructs the block-aligned byte address of (set, tag).
func (c *Cache[L]) BlockAddr(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.blockBits
}

// Sets returns the number of sets.
func (c *Cache[L]) Sets() int { return len(c.sets) }

// Assoc returns the number of ways per set.
func (c *Cache[L]) Assoc() int { return c.geom.Assoc }

// Probe looks for tag in set without updating recency.
func (c *Cache[L]) Probe(set int, tag uint64) (wayIdx int, ok bool) {
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			return i, true
		}
	}
	return -1, false
}

// Touch marks (set, way) most recently used. FIFO caches ignore touches.
func (c *Cache[L]) Touch(set, wayIdx int) {
	if c.policy == FIFO {
		return
	}
	c.clock++
	c.materialize(set)[wayIdx].stamp = c.clock
}

// Line returns a pointer to the payload of (set, way). The pointer stays
// valid until the cache is discarded; invalidation does not clear payloads.
func (c *Cache[L]) Line(set, wayIdx int) *L { return &c.materialize(set)[wayIdx].line }

// TagAt returns the tag stored at (set, way); meaningful only when valid.
func (c *Cache[L]) TagAt(set, wayIdx int) uint64 {
	if ws := c.sets[set]; ws != nil {
		return ws[wayIdx].tag
	}
	return 0
}

// ValidAt reports whether (set, way) holds a valid entry.
func (c *Cache[L]) ValidAt(set, wayIdx int) bool {
	if ws := c.sets[set]; ws != nil {
		return ws[wayIdx].valid
	}
	return false
}

// Victim picks a way of set to replace. Invalid ways are taken first. If
// prefer is non-nil, valid ways satisfying prefer are chosen (by policy)
// before ways that do not, and the second return value reports whether the
// chosen valid victim satisfied prefer. For an invalid way, preferred is
// true.
//
// prefer receives the (set, way) pair, so callers can install one
// long-lived predicate at construction instead of closing over the set on
// every call — the per-reference path then allocates nothing.
func (c *Cache[L]) Victim(set int, prefer func(set, wayIdx int) bool) (wayIdx int, preferred bool) {
	ws := c.materialize(set)
	for i := range ws {
		if !ws[i].valid {
			return i, true
		}
	}
	if prefer != nil {
		if i := c.pick(set, prefer); i >= 0 {
			return i, true
		}
	}
	return c.pick(set, nil), prefer == nil
}

// pick applies the replacement policy over ways of set satisfying filter
// (nil accepts all); returns -1 when none qualifies.
func (c *Cache[L]) pick(set int, filter func(set, wayIdx int) bool) int {
	ws := c.sets[set]
	switch c.policy {
	case Random:
		// Count the qualifying ways, draw once, then walk to the chosen
		// one: same single rng draw (and therefore the same choice) as
		// collecting candidates into a slice, without the allocation.
		n := 0
		for i := range ws {
			if filter == nil || filter(set, i) {
				n++
			}
		}
		if n == 0 {
			return -1
		}
		k := c.rng.Intn(n)
		for i := range ws {
			if filter == nil || filter(set, i) {
				if k == 0 {
					return i
				}
				k--
			}
		}
		panic("cache: random pick out of range")
	default: // LRU and FIFO: minimum stamp
		best, bestStamp := -1, uint64(0)
		for i := range ws {
			if filter != nil && !filter(set, i) {
				continue
			}
			if best == -1 || ws[i].stamp < bestStamp {
				best, bestStamp = i, ws[i].stamp
			}
		}
		return best
	}
}

// Install writes tag into (set, way), marks it valid and most recently used,
// and returns a pointer to the payload for the caller to initialize.
func (c *Cache[L]) Install(set, wayIdx int, tag uint64) *L {
	w := &c.materialize(set)[wayIdx]
	w.tag = tag
	w.valid = true
	c.clock++
	w.stamp = c.clock
	return &w.line
}

// Retag changes the tag of a valid entry in place (the paper's sameset
// synonym handling retags the line under the new virtual address).
func (c *Cache[L]) Retag(set, wayIdx int, tag uint64) {
	w := &c.materialize(set)[wayIdx]
	if !w.valid {
		panic("cache: Retag of invalid way")
	}
	w.tag = tag
}

// Invalidate clears the valid bit of (set, way). The payload is untouched;
// callers that keep state across invalidation (the V-cache's swapped-valid
// blocks) manage it in the payload.
func (c *Cache[L]) Invalidate(set, wayIdx int) {
	if ws := c.sets[set]; ws != nil {
		ws[wayIdx].valid = false
	}
}

// InvalidateAll clears every valid bit. Never-materialized sets hold no
// valid entries and are left alone.
func (c *Cache[L]) InvalidateAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w].valid = false
		}
	}
}

// ForEach visits every way (valid or not) as (set, way), including ways of
// sets that were never materialized.
func (c *Cache[L]) ForEach(fn func(set, wayIdx int)) {
	for s := range c.sets {
		for w := 0; w < c.geom.Assoc; w++ {
			fn(s, w)
		}
	}
}

// ForEachValid visits every valid way as (set, way).
func (c *Cache[L]) ForEachValid(fn func(set, wayIdx int)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				fn(s, w)
			}
		}
	}
}

// CountValid returns the number of valid entries.
func (c *Cache[L]) CountValid() int {
	n := 0
	c.ForEachValid(func(int, int) { n++ })
	return n
}

// Entry is one way's serializable state (checkpoint support).
type Entry[L any] struct {
	Tag   uint64
	Valid bool
	Stamp uint64
	Line  L
}

// State is a tag store's serializable state: the recency clock, the rng
// draw count (Random replacement only), and every way in (set, way) order.
// The payloads are shallow copies; callers whose payload holds reference
// types deep-copy around Export/Restore.
type State[L any] struct {
	Clock uint64
	Draws uint64
	Ways  []Entry[L]
}

// ExportState captures the tag store's full contents, walking ways in
// deterministic (set, way) order so identical caches export identical
// states.
func (c *Cache[L]) ExportState() State[L] {
	s := State[L]{Clock: c.clock, Draws: c.rngSrc.n, Ways: make([]Entry[L], 0, len(c.sets)*c.geom.Assoc)}
	for _, ws := range c.sets {
		if ws == nil {
			// Never-materialized sets export as zero entries, identical to
			// what an eagerly allocated untouched set would produce.
			for i := 0; i < c.geom.Assoc; i++ {
				s.Ways = append(s.Ways, Entry[L]{})
			}
			continue
		}
		for i := range ws {
			w := &ws[i]
			s.Ways = append(s.Ways, Entry[L]{Tag: w.tag, Valid: w.valid, Stamp: w.stamp, Line: w.line})
		}
	}
	return s
}

// RestoreState replaces the tag store's contents with a previously exported
// state. The way count must match the cache's geometry, and no stamp may be
// ahead of the recency clock; the rng is rewound to the construction seed
// and the recorded draws are replayed so Random replacement continues
// identically.
func (c *Cache[L]) RestoreState(s State[L]) error {
	if len(s.Ways) != len(c.sets)*c.geom.Assoc {
		return fmt.Errorf("cache: state has %d ways, geometry %v needs %d",
			len(s.Ways), c.geom, len(c.sets)*c.geom.Assoc)
	}
	for i := range s.Ways {
		if s.Ways[i].Stamp > s.Clock {
			return fmt.Errorf("cache: state way %d stamp %d is ahead of clock %d",
				i, s.Ways[i].Stamp, s.Clock)
		}
	}
	c.clock = s.Clock
	c.rngSrc = &countingSource{src: rand.NewSource(c.seed)}
	c.rng = rand.New(c.rngSrc)
	for d := uint64(0); d < s.Draws; d++ {
		c.rngSrc.Int63()
	}
	c.rngSrc.n = s.Draws
	// Restore materializes every set: a payload may carry meaningful state
	// even on an invalid line (the V-cache keeps swapped blocks there), so
	// no set can be skipped as trivially empty.
	k := 0
	for si := range c.sets {
		ws := c.materialize(si)
		for i := range ws {
			e := &s.Ways[k]
			ws[i] = way[L]{tag: e.Tag, valid: e.Valid, stamp: e.Stamp, line: e.Line}
			k++
		}
	}
	return nil
}
