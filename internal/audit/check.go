package audit

import (
	"fmt"
	"sort"
)

// Check verifies every invariant against the snapshot and returns the
// violations found, per-CPU findings first (in CPU order), then machine-wide
// coherence findings (in block-address order). A clean machine returns nil.
func (s *Snapshot) Check() []Violation {
	c := &checker{}
	for _, cs := range s.CPUs {
		c.checkCPU(cs)
	}
	c.checkCrossCPU(s)
	return c.out
}

type checker struct {
	out []Violation
}

func (c *checker) add(inv Invariant, cpu int, loc, format string, args ...any) {
	c.out = append(c.out, Violation{
		Invariant: inv,
		CPU:       cpu,
		Location:  loc,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Locations are formatted only when a violation is recorded: a clean audit
// formats nothing, which keeps checking after every reference affordable.
func vloc(cache, set, way int) string { return fmt.Sprintf("V%d[%d.%d]", cache, set, way) }
func rloc(set, way, sub int) string   { return fmt.Sprintf("R[%d.%d.%d]", set, way, sub) }

// linePos names a first- or second-level line without formatting it.
type linePos struct {
	level           byte // 'V' (V-cache), 'L' (no-inclusion L1) or 'R' (R-cache line)
	cache, set, way int
}

func (p linePos) String() string {
	switch p.level {
	case 'V':
		return vloc(p.cache, p.set, p.way)
	case 'L':
		return fmt.Sprintf("L1[%d.%d]", p.set, p.way)
	}
	return fmt.Sprintf("R[%d.%d]", p.set, p.way)
}

// checkCPU runs every single-hierarchy invariant.
func (c *checker) checkCPU(cs *CPUSnapshot) {
	rIndex := make(map[[2]int]*RLine, len(cs.RLines))
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		rIndex[[2]int{rl.Set, rl.Way}] = rl
	}
	if !cs.Inclusive {
		c.checkNoInclusion(cs)
		c.checkVictim(cs)
		if cs.HasRLT || len(cs.RLT) > 0 {
			c.add(InvRLTReciprocity, cs.CPU, "RLT",
				"reverse-lookup table present outside the V-R organization")
		}
		c.checkTLB(cs)
		return
	}

	// Forward pass: every first-level line against its R-cache parent.
	lines := 0
	for _, vcs := range cs.VCaches {
		lines += len(vcs.Lines)
	}
	vIndex := make(map[[3]int]*VLine, lines)
	children := 0
	seenPA := make(map[uint64]linePos, lines)
	for vi := range cs.VCaches {
		vcs := &cs.VCaches[vi]
		for li := range vcs.Lines {
			vl := &vcs.Lines[li]
			vIndex[[3]int{vcs.Cache, vl.Set, vl.Way}] = vl
			children++
			pos := linePos{'V', vcs.Cache, vl.Set, vl.Way}
			loc := pos.String
			if vl.SV && !cs.LazyFlush {
				c.add(InvSwappedValid, cs.CPU, loc(),
					"swapped-valid line outside the lazy-flush organization")
			}
			rl, ok := rIndex[[2]int{vl.RSet, vl.RWay}]
			if !ok {
				c.add(InvInclusion, cs.CPU, loc(),
					"parent %s not present", rloc(vl.RSet, vl.RWay, vl.RSub))
				continue
			}
			if vl.RSub < 0 || vl.RSub >= len(rl.Subs) {
				c.add(InvReciprocity, cs.CPU, loc(),
					"r-pointer sub %d out of range (%d subentries)", vl.RSub, len(rl.Subs))
				continue
			}
			sub := &rl.Subs[vl.RSub]
			if !sub.Inclusion {
				c.add(InvInclusion, cs.CPU, loc(),
					"parent %s inclusion bit clear", rloc(vl.RSet, vl.RWay, vl.RSub))
			} else if sub.VCache != vcs.Cache || sub.VSet != vl.Set || sub.VWay != vl.Way {
				c.add(InvReciprocity, cs.CPU, loc(),
					"parent %s v-pointer %s does not point back",
					rloc(vl.RSet, vl.RWay, vl.RSub), vloc(sub.VCache, sub.VSet, sub.VWay))
			}
			if sub.VDirty != vl.Dirty {
				c.add(InvDirtyBits, cs.CPU, loc(),
					"dirty %v but parent VDirty %v", vl.Dirty, sub.VDirty)
			}
			pa := rl.Addr + uint64(vl.RSub)*cs.L1Block
			if prev, dup := seenPA[pa]; dup {
				c.add(InvUniqueCopy, cs.CPU, loc(),
					"physical block %#x also held by %s", pa, prev)
			} else {
				seenPA[pa] = pos
			}
			if cs.Virtual {
				if !vl.Mapped {
					c.add(InvTranslation, cs.CPU, loc(),
						"vbase %#x pid %d unmapped", vl.VBase, vl.PID)
				} else if vl.MMUPA != pa {
					c.add(InvTranslation, cs.CPU, loc(),
						"vbase %#x translates to %#x but r-pointer says %#x",
						vl.VBase, vl.MMUPA, pa)
				}
			}
		}
	}

	// Reverse pass: every subentry's pointers, bits and counts.
	wbIndex := make(map[[3]int]bool, len(cs.WriteBuffer))
	for _, e := range cs.WriteBuffer {
		wbIndex[[3]int{e.RSet, e.RWay, e.RSub}] = true
	}
	inclusionBits, bufferBits := 0, 0
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		modified := false
		for si := range rl.Subs {
			sub := &rl.Subs[si]
			loc := func() string { return rloc(rl.Set, rl.Way, si) }
			if sub.Inclusion {
				inclusionBits++
				child, ok := vIndex[[3]int{sub.VCache, sub.VSet, sub.VWay}]
				if !ok {
					c.add(InvReciprocity, cs.CPU, loc(),
						"v-pointer %s to absent line", vloc(sub.VCache, sub.VSet, sub.VWay))
				} else if child.RSet != rl.Set || child.RWay != rl.Way || child.RSub != si {
					c.add(InvReciprocity, cs.CPU, loc(),
						"child r-pointer %s does not round-trip",
						rloc(child.RSet, child.RWay, child.RSub))
				}
				if sub.Buffer {
					c.add(InvBufferBit, cs.CPU, loc(), "inclusion and buffer bits both set")
				}
			}
			if sub.Buffer {
				bufferBits++
				if !wbIndex[[3]int{rl.Set, rl.Way, si}] {
					c.add(InvBufferBit, cs.CPU, loc(), "buffer bit set but nothing buffered")
				}
				if !sub.VDirty {
					c.add(InvDirtyBits, cs.CPU, loc(), "buffered but VDirty clear")
				}
			}
			if sub.VDirty && !sub.Inclusion && !sub.Buffer {
				c.add(InvDirtyBits, cs.CPU, loc(), "VDirty without child or buffer")
			}
			if sub.VDirty || sub.RDirty || sub.Buffer {
				modified = true
			}
		}
		if modified && rl.State != StatePrivate {
			c.add(InvCoherence, cs.CPU, linePos{level: 'R', set: rl.Set, way: rl.Way}.String(),
				"modified block %#x held %s", rl.Addr, rl.State)
		}
	}
	if inclusionBits != children {
		c.add(InvInclusion, cs.CPU, "R-cache",
			"%d inclusion bits but %d first-level lines", inclusionBits, children)
	}
	if bufferBits != len(cs.WriteBuffer) {
		c.add(InvBufferBit, cs.CPU, "write buffer",
			"%d buffer bits but %d buffered entries", bufferBits, len(cs.WriteBuffer))
	}
	for _, e := range cs.WriteBuffer {
		rl, ok := rIndex[[2]int{e.RSet, e.RWay}]
		if !ok || e.RSub < 0 || e.RSub >= len(rl.Subs) || !rl.Subs[e.RSub].Buffer {
			c.add(InvBufferBit, cs.CPU, rloc(e.RSet, e.RWay, e.RSub),
				"buffered entry without a matching buffer bit")
		}
	}
	c.checkVictim(cs)
	c.checkRLT(cs, children, vIndex, rIndex)
	c.checkTLB(cs)
}

// checkVictim verifies the victim-cache invariant on any organization:
// every parked entry names a block that is absent from the first level,
// present in the second, and carries the second level's current token (or
// the in-flight buffered write-back's).
func (c *checker) checkVictim(cs *CPUSnapshot) {
	if !cs.HasVictim && len(cs.Victim) == 0 {
		return
	}
	// First-level residency by physical address.
	l1Held := make(map[uint64]linePos)
	for i := range cs.L1Lines {
		ll := &cs.L1Lines[i]
		l1Held[ll.Addr] = linePos{level: 'L', set: ll.Set, way: ll.Way}
	}
	// Second-level sub lookup (plus inclusive first-level residency).
	type subRef struct {
		sub *RSub
		rl  *RLine
		si  int
	}
	subAt := make(map[uint64]subRef)
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		for si := range rl.Subs {
			pa := rl.Addr + uint64(si)*cs.L1Block
			subAt[pa] = subRef{sub: &rl.Subs[si], rl: rl, si: si}
			if rl.Subs[si].Inclusion {
				l1Held[pa] = linePos{'V', rl.Subs[si].VCache, rl.Subs[si].VSet, rl.Subs[si].VWay}
			}
		}
	}
	wbToken := make(map[[3]int]uint64, len(cs.WriteBuffer))
	for _, e := range cs.WriteBuffer {
		wbToken[[3]int{e.RSet, e.RWay, e.RSub}] = e.Token
	}
	for i := range cs.Victim {
		ve := &cs.Victim[i]
		loc := func() string { return fmt.Sprintf("VC[%#x]", ve.PA) }
		if holder, held := l1Held[ve.PA]; held {
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked block also resident at the first level (%s)", holder)
			continue
		}
		ref, ok := subAt[ve.PA]
		if !ok {
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked block not contained in the second level")
			continue
		}
		want := ref.sub.Token
		if ref.sub.Buffer {
			want = wbToken[[3]int{ref.rl.Set, ref.rl.Way, ref.si}]
		}
		if ve.Token != want {
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked token %d but second level holds %d", ve.Token, want)
		}
	}
}

// checkRLT verifies the reverse-lookup table's reciprocity: the table and
// the first-level lines are in bijection, each entry keyed by its line's
// physical address and agreeing with the subentry v-pointer. vIndex and
// rIndex are checkCPU's line indexes.
func (c *checker) checkRLT(cs *CPUSnapshot, children int, vIndex map[[3]int]*VLine, rIndex map[[2]int]*RLine) {
	if !cs.HasRLT && len(cs.RLT) == 0 {
		return
	}
	if len(cs.RLT) != children {
		c.add(InvRLTReciprocity, cs.CPU, "RLT",
			"%d table entries but %d first-level lines", len(cs.RLT), children)
	}
	for i := range cs.RLT {
		e := &cs.RLT[i]
		loc := func() string { return fmt.Sprintf("RLT[%#x]", e.PA) }
		vl, ok := vIndex[[3]int{e.VCache, e.VSet, e.VWay}]
		if !ok {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry points at absent line %s", vloc(e.VCache, e.VSet, e.VWay))
			continue
		}
		rl, ok := rIndex[[2]int{vl.RSet, vl.RWay}]
		if !ok || vl.RSub < 0 || vl.RSub >= len(rl.Subs) {
			// The forward pass already reported the broken parent.
			continue
		}
		if pa := rl.Addr + uint64(vl.RSub)*cs.L1Block; pa != e.PA {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry keyed %#x but its line holds %#x", e.PA, pa)
			continue
		}
		sub := &rl.Subs[vl.RSub]
		if sub.VCache != e.VCache || sub.VSet != e.VSet || sub.VWay != e.VWay {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry %s disagrees with subentry v-pointer %s",
				vloc(e.VCache, e.VSet, e.VWay), vloc(sub.VCache, sub.VSet, sub.VWay))
		}
	}
}

// checkNoInclusion covers the no-inclusion baseline: the subentry inclusion
// machinery must be unused, and dirty data at either level must be private.
func (c *checker) checkNoInclusion(cs *CPUSnapshot) {
	for i := range cs.L1Lines {
		ll := &cs.L1Lines[i]
		if ll.Dirty && ll.State != StatePrivate {
			c.add(InvCoherence, cs.CPU, linePos{level: 'L', set: ll.Set, way: ll.Way}.String(),
				"dirty block %#x held %s", ll.Addr, ll.State)
		}
	}
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		for si := range rl.Subs {
			sub := &rl.Subs[si]
			loc := func() string { return rloc(rl.Set, rl.Way, si) }
			if sub.Inclusion || sub.Buffer || sub.VDirty {
				c.add(InvInclusion, cs.CPU, loc(),
					"inclusion machinery used in the no-inclusion baseline")
			}
			if sub.RDirty && rl.State != StatePrivate {
				c.add(InvCoherence, cs.CPU, loc(),
					"dirty block %#x held %s", rl.Addr+uint64(si)*cs.L1Block, rl.State)
			}
		}
	}
}

// checkTLB verifies every resident translation against the page tables.
func (c *checker) checkTLB(cs *CPUSnapshot) {
	for i := range cs.TLB {
		e := &cs.TLB[i]
		loc := func() string { return fmt.Sprintf("TLB[pid %d page %#x]", e.PID, e.VPage) }
		if !e.Mapped {
			c.add(InvTLB, cs.CPU, loc(), "cached translation for an unmapped page")
		} else if e.Frame != e.MMUFrame {
			c.add(InvTLB, cs.CPU, loc(),
				"cached frame %#x but page tables say %#x", e.Frame, e.MMUFrame)
		}
	}
}

// checkCrossCPU verifies the snooping protocol's exclusivity: no block may
// be private on one CPU while any other CPU holds an overlapping copy.
// Copies are keyed at L2-block granularity; the no-inclusion baseline's L1
// lines are aligned down, since its invalidations travel at L2-block size.
func (c *checker) checkCrossCPU(s *Snapshot) {
	type holder struct {
		cpu     int
		private bool
		pos     linePos
	}
	perCPU := 0
	for _, cs := range s.CPUs {
		perCPU = max(perCPU, len(cs.RLines)+len(cs.L1Lines))
	}
	blocks := make(map[uint64][]holder, perCPU)
	for _, cs := range s.CPUs {
		for i := range cs.RLines {
			rl := &cs.RLines[i]
			blocks[rl.Addr] = append(blocks[rl.Addr], holder{
				cpu:     cs.CPU,
				private: rl.State == StatePrivate,
				pos:     linePos{level: 'R', set: rl.Set, way: rl.Way},
			})
		}
		for i := range cs.L1Lines {
			ll := &cs.L1Lines[i]
			a := ll.Addr &^ (cs.L2Block - 1)
			blocks[a] = append(blocks[a], holder{
				cpu:     cs.CPU,
				private: ll.State == StatePrivate,
				pos:     linePos{level: 'L', set: ll.Set, way: ll.Way},
			})
		}
	}
	addrs := make([]uint64, 0, len(blocks))
	for a := range blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		hs := blocks[a]
		for _, h := range hs {
			if !h.private {
				continue
			}
			for _, o := range hs {
				if o.cpu != h.cpu {
					c.add(InvCoherence, -1, fmt.Sprintf("cpu %d %s", h.cpu, h.pos),
						"block %#x private here but also held by cpu %d %s", a, o.cpu, o.pos)
					break
				}
			}
		}
	}
}
