package audit

import (
	"bytes"
	"strings"
	"testing"
)

// cleanCPU builds a small, fully consistent virtual-organization CPU
// snapshot: two resident V lines (one dirty), one buffered write-back, and
// one TLB entry.
func cleanCPU() *CPUSnapshot {
	return &CPUSnapshot{
		CPU: 0, Virtual: true, Inclusive: true, LazyFlush: true,
		L1Block: 16, L2Block: 32,
		VCaches: []VCacheSnapshot{{
			Cache: 0, Sets: 8, Ways: 1,
			Lines: []VLine{
				{Set: 2, Way: 0, Dirty: true, RSet: 0, RWay: 0, RSub: 0,
					PID: 1, VBase: 0x4020, Mapped: true, MMUPA: 0x1000},
				{Set: 3, Way: 0, SV: true, RSet: 1, RWay: 0, RSub: 0,
					PID: 1, VBase: 0x4030, Mapped: true, MMUPA: 0x2020},
			},
		}},
		RLines: []RLine{
			{Set: 0, Way: 0, Addr: 0x1000, State: "private", Subs: []RSub{
				{Sub: 0, Inclusion: true, VDirty: true, VCache: 0, VSet: 2, VWay: 0},
				{Sub: 1, Buffer: true, VDirty: true},
			}},
			{Set: 1, Way: 0, Addr: 0x2020, State: "shared", Subs: []RSub{
				{Sub: 0, Inclusion: true, VCache: 0, VSet: 3, VWay: 0},
				{Sub: 1},
			}},
		},
		WriteBuffer: []WBEntry{{RSet: 0, RWay: 0, RSub: 1, Token: 9}},
		TLB:         []TLBEntry{{PID: 1, VPage: 4, Frame: 1, Mapped: true, MMUFrame: 1}},
	}
}

func cleanSnapshot() *Snapshot {
	return &Snapshot{Organization: "VR", Protocol: "write-invalidate",
		Refs: 100, CPUs: []*CPUSnapshot{cleanCPU()}}
}

func TestCleanSnapshotHasNoViolations(t *testing.T) {
	if vs := cleanSnapshot().Check(); len(vs) != 0 {
		t.Fatalf("clean snapshot: %d violations: %v", len(vs), vs)
	}
}

// assertOnly checks that every violation is of the wanted invariant and at
// least one was found.
func assertOnly(t *testing.T, vs []Violation, want Invariant) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("corruption not detected, want %v", want)
	}
	for _, v := range vs {
		if v.Invariant != want {
			t.Fatalf("flagged %v (%s), want only %v; all: %v", v.Invariant, v, want, vs)
		}
	}
}

func TestCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *Snapshot)
		want    Invariant
	}{
		{"inclusion bit cleared", func(s *Snapshot) {
			// Clean child so no dirty-bit finding rides along.
			s.CPUs[0].RLines[1].Subs[0].Inclusion = false
		}, InvInclusion},
		{"parent line missing", func(s *Snapshot) {
			s.CPUs[0].RLines = s.CPUs[0].RLines[:1]
			s.CPUs[0].VCaches[0].Lines = s.CPUs[0].VCaches[0].Lines[:2]
			s.CPUs[0].VCaches[0].Lines[1].RSet = 5 // point into the void
		}, InvInclusion},
		{"v-pointer corrupted", func(s *Snapshot) {
			s.CPUs[0].RLines[1].Subs[0].VWay = 7
		}, InvReciprocity},
		{"r-pointer corrupted", func(s *Snapshot) {
			// A stale r-pointer breaks the round-trip from the true parent
			// (reciprocity); the forward pass may also see the inclusion
			// machinery disturbed, which the relaxed check below allows.
			s.CPUs[0].VCaches[0].Lines[1].RSub = 1
			s.CPUs[0].VCaches[0].Lines[1].MMUPA = 0x2030
		}, InvReciprocity},
		{"buffer bit cleared", func(s *Snapshot) {
			s.CPUs[0].RLines[0].Subs[1].Buffer = false
			s.CPUs[0].RLines[0].Subs[1].VDirty = false
		}, InvBufferBit},
		{"buffer bit without entry", func(s *Snapshot) {
			s.CPUs[0].WriteBuffer = nil
		}, InvBufferBit},
		{"inclusion and buffer bits both set", func(s *Snapshot) {
			s.CPUs[0].RLines[1].Subs[0].Buffer = true
			s.CPUs[0].RLines[1].Subs[0].VDirty = true
			s.CPUs[0].VCaches[0].Lines[1].Dirty = true
			s.CPUs[0].WriteBuffer = append(s.CPUs[0].WriteBuffer,
				WBEntry{RSet: 1, RWay: 0, RSub: 0})
			// The shared parent now looks modified; keep coherence clean.
			s.CPUs[0].RLines[1].State = "private"
		}, InvBufferBit},
		{"vdirty dropped", func(s *Snapshot) {
			s.CPUs[0].RLines[0].Subs[0].VDirty = false
		}, InvDirtyBits},
		{"vdirty dangling", func(s *Snapshot) {
			s.CPUs[0].RLines[1].Subs[1].VDirty = true
			s.CPUs[0].RLines[1].State = "private"
		}, InvDirtyBits},
		{"sv outside lazy flush", func(s *Snapshot) {
			s.CPUs[0].LazyFlush = false
		}, InvSwappedValid},
		{"duplicate physical block", func(s *Snapshot) {
			l := &s.CPUs[0].VCaches[0].Lines[1]
			l.RSet, l.RWay, l.RSub = 0, 0, 0
			l.MMUPA = 0x1000
			s.CPUs[0].RLines[1].Subs[0].Inclusion = false
			s.CPUs[0].RLines[0].Subs[0].VCache = 0
			// Both V lines now claim R[0.0.0]; reciprocity for one of them
			// cannot hold, so accept those findings alongside.
		}, InvUniqueCopy},
		{"dirty block shared", func(s *Snapshot) {
			s.CPUs[0].RLines[0].State = "shared"
		}, InvCoherence},
		{"translation mismatch", func(s *Snapshot) {
			s.CPUs[0].VCaches[0].Lines[0].MMUPA = 0x3000
		}, InvTranslation},
		{"translation unmapped", func(s *Snapshot) {
			s.CPUs[0].VCaches[0].Lines[0].Mapped = false
			s.CPUs[0].VCaches[0].Lines[0].MMUPA = 0
		}, InvTranslation},
		{"tlb frame stale", func(s *Snapshot) {
			s.CPUs[0].TLB[0].Frame = 99
		}, InvTLB},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := cleanSnapshot()
			tc.corrupt(s)
			vs := s.Check()
			if len(vs) == 0 {
				t.Fatalf("corruption not detected, want %v", tc.want)
			}
			found := false
			for _, v := range vs {
				if v.Invariant == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("want %v, got %v", tc.want, vs)
			}
			// Most corruptions must be flagged as exactly one invariant; a
			// duplicated block or stale r-pointer necessarily disturbs the
			// pointer/inclusion linkage too.
			if tc.name != "duplicate physical block" && tc.name != "r-pointer corrupted" {
				assertOnly(t, vs, tc.want)
			}
		})
	}
}

func TestCrossCPUCoherence(t *testing.T) {
	two := func() *Snapshot {
		a, b := cleanCPU(), cleanCPU()
		b.CPU = 1
		// Only the shared line overlaps; drop CPU 1's private state.
		b.VCaches[0].Lines = b.VCaches[0].Lines[1:]
		b.RLines = b.RLines[1:]
		b.WriteBuffer = nil
		return &Snapshot{Organization: "VR", CPUs: []*CPUSnapshot{a, b}}
	}
	if vs := two().Check(); len(vs) != 0 {
		t.Fatalf("clean two-CPU snapshot: %v", vs)
	}
	s := two()
	s.CPUs[0].RLines[1].State = "private"
	vs := s.Check()
	assertOnly(t, vs, InvCoherence)
	if vs[0].CPU != -1 {
		t.Fatalf("cross-CPU violation attributed to cpu %d, want -1", vs[0].CPU)
	}
}

func TestNoInclusionBaseline(t *testing.T) {
	if vs := noInclusion().Check(); len(vs) != 0 {
		t.Fatalf("clean no-inclusion snapshot: %v", vs)
	}
	s := noInclusion()
	s.CPUs[0].L1Lines[0].State = "shared"
	assertOnly(t, s.Check(), InvCoherence)
	s = noInclusion()
	s.CPUs[0].RLines[0].Subs[1].Inclusion = true
	assertOnly(t, s.Check(), InvInclusion)
}

func TestAuditorTickPeriod(t *testing.T) {
	src := snapFunc(func() *Snapshot { return cleanSnapshot() })
	a := New(10)
	for i := 0; i < 35; i++ {
		a.Tick(src)
	}
	if got := a.Audits(); got != 3 {
		t.Fatalf("35 ticks at period 10: %d audits, want 3", got)
	}
	if a.Total() != 0 || len(a.Violations()) != 0 {
		t.Fatalf("clean source produced violations: %v", a.Violations())
	}
}

func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Tick(snapFunc(func() *Snapshot { t.Fatal("nil auditor snapshotted"); return nil }))
	if a.Audits() != 0 || a.Total() != 0 || a.Every() != 0 || a.Violations() != nil {
		t.Fatal("nil auditor reported activity")
	}
	if got := a.Audit(snapFunc(cleanSnapshot)); got != nil {
		t.Fatalf("nil auditor audit: %v", got)
	}
}

func TestAuditorRecordsAndCaps(t *testing.T) {
	bad := cleanSnapshot()
	bad.CPUs[0].RLines[0].State = "shared"
	a := New(0)
	var seen int
	a.OnAudit = func(snap *Snapshot, found []Violation) { seen = len(found) }
	found := a.Audit(snapFunc(func() *Snapshot { return bad }))
	if len(found) == 0 || seen != len(found) {
		t.Fatalf("audit found %d, OnAudit saw %d", len(found), seen)
	}
	if a.Audits() != 1 || a.Total() != uint64(len(found)) {
		t.Fatalf("counters: audits %d total %d", a.Audits(), a.Total())
	}
}

// snapFunc adapts a function to the Source interface.
type snapFunc func() *Snapshot

func (f snapFunc) AuditSnapshot() *Snapshot { return f() }

func TestSnapshotJSONDeterministicRoundTrip(t *testing.T) {
	s := cleanSnapshot()
	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot JSON not deterministic")
	}
	back, err := ParseJSON(&a)
	if err != nil {
		t.Fatal(err)
	}
	if vs := back.Check(); len(vs) != 0 {
		t.Fatalf("round-tripped snapshot: %v", vs)
	}
}

func TestInvariantNamesRoundTrip(t *testing.T) {
	for i := Invariant(0); i < NumInvariants; i++ {
		b, err := i.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Invariant
		if err := back.UnmarshalText(b); err != nil || back != i {
			t.Fatalf("%v: round-trip got %v, err %v", i, back, err)
		}
	}
}

// withVictim and withRLT extend the clean snapshot with a consistent victim
// cache (one parked block, not first-level resident) and a reverse-lookup
// table mirroring both V lines.
func withVictim(s *Snapshot) *Snapshot {
	s.CPUs[0].HasVictim = true
	s.CPUs[0].Victim = []VictimEntry{{PA: 0x2030}}
	return s
}

func withRLT(s *Snapshot) *Snapshot {
	s.CPUs[0].HasRLT = true
	s.CPUs[0].RLT = []RLTEntry{{PA: 0x1000, VSet: 2}, {PA: 0x2020, VSet: 3}}
	return s
}

// noInclusion builds a clean no-inclusion baseline snapshot: one dirty
// private L1 line and one shared L2 line.
func noInclusion() *Snapshot {
	return &Snapshot{Organization: "RR(no incl)", CPUs: []*CPUSnapshot{{
		CPU: 0, Inclusive: false, L1Block: 16, L2Block: 32,
		L1Lines: []L1Line{{Set: 0, Way: 0, Addr: 0x1000, State: "private", Dirty: true}},
		RLines: []RLine{{Set: 0, Way: 0, Addr: 0x2000, State: "shared",
			Subs: []RSub{{Sub: 0, Token: 4}, {Sub: 1}}}},
		TLB: []TLBEntry{{PID: 1, VPage: 2, Frame: 3, Mapped: true, MMUFrame: 3}},
	}}}
}

// TestViolationText pins every diagnostic byte for byte: one row per
// corruption, listing the full String() of each finding in report order.
func TestViolationText(t *testing.T) {
	cases := []struct {
		name string
		snap func() *Snapshot
		want []string
	}{
		{"inclusion bit cleared", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[1].Subs[0].Inclusion = false
			return s
		}, []string{
			"cpu 0: inclusion at V0[3.0]: parent R[1.0.0] inclusion bit clear",
			"cpu 0: inclusion at R-cache: 1 inclusion bits but 2 first-level lines",
		}},
		{"parent line missing", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].VCaches[0].Lines[1].RSet = 5
			return s
		}, []string{
			"cpu 0: inclusion at V0[3.0]: parent R[5.0.0] not present",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[5.0.0] does not round-trip",
		}},
		{"r-pointer sub out of range", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].VCaches[0].Lines[1].RSub = 5
			return s
		}, []string{
			"cpu 0: reciprocity at V0[3.0]: r-pointer sub 5 out of range (2 subentries)",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[1.0.5] does not round-trip",
		}},
		{"v-pointer corrupted", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[1].Subs[0].VWay = 7
			return s
		}, []string{
			"cpu 0: reciprocity at V0[3.0]: parent R[1.0.0] v-pointer V0[3.7] does not point back",
			"cpu 0: reciprocity at R[1.0.0]: v-pointer V0[3.7] to absent line",
		}},
		{"r-pointer corrupted", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].VCaches[0].Lines[1].RSub = 1
			return s
		}, []string{
			"cpu 0: inclusion at V0[3.0]: parent R[1.0.1] inclusion bit clear",
			"cpu 0: translation at V0[3.0]: vbase 0x4030 translates to 0x2020 but r-pointer says 0x2030",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[1.0.1] does not round-trip",
		}},
		{"buffer bit cleared", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[0].Subs[1].Buffer = false
			return s
		}, []string{
			"cpu 0: dirty-bits at R[0.0.1]: VDirty without child or buffer",
			"cpu 0: buffer-bit at write buffer: 0 buffer bits but 1 buffered entries",
			"cpu 0: buffer-bit at R[0.0.1]: buffered entry without a matching buffer bit",
		}},
		{"buffered entry without buffer bit", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].WriteBuffer = append(s.CPUs[0].WriteBuffer, WBEntry{RSet: 1, RWay: 0, RSub: 1})
			return s
		}, []string{
			"cpu 0: buffer-bit at write buffer: 1 buffer bits but 2 buffered entries",
			"cpu 0: buffer-bit at R[1.0.1]: buffered entry without a matching buffer bit",
		}},
		{"inclusion and buffer bits both set", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[1].Subs[0].Buffer = true
			return s
		}, []string{
			"cpu 0: buffer-bit at R[1.0.0]: inclusion and buffer bits both set",
			"cpu 0: buffer-bit at R[1.0.0]: buffer bit set but nothing buffered",
			"cpu 0: dirty-bits at R[1.0.0]: buffered but VDirty clear",
			"cpu 0: coherence at R[1.0]: modified block 0x2020 held shared",
			"cpu 0: buffer-bit at write buffer: 2 buffer bits but 1 buffered entries",
		}},
		{"vdirty dropped", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[0].Subs[0].VDirty = false
			return s
		}, []string{
			"cpu 0: dirty-bits at V0[2.0]: dirty true but parent VDirty false",
		}},
		{"vdirty dangling", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].RLines[1].Subs[1].VDirty = true
			return s
		}, []string{
			"cpu 0: dirty-bits at R[1.0.1]: VDirty without child or buffer",
			"cpu 0: coherence at R[1.0]: modified block 0x2020 held shared",
		}},
		{"sv outside lazy flush", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].LazyFlush = false
			return s
		}, []string{
			"cpu 0: swapped-valid at V0[3.0]: swapped-valid line outside the lazy-flush organization",
		}},
		{"duplicate physical block", func() *Snapshot {
			s := cleanSnapshot()
			l := &s.CPUs[0].VCaches[0].Lines[1]
			l.RSet, l.RWay, l.RSub = 0, 0, 0
			l.MMUPA = 0x1000
			return s
		}, []string{
			"cpu 0: reciprocity at V0[3.0]: parent R[0.0.0] v-pointer V0[2.0] does not point back",
			"cpu 0: dirty-bits at V0[3.0]: dirty false but parent VDirty true",
			"cpu 0: unique-copy at V0[3.0]: physical block 0x1000 also held by V0[2.0]",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[0.0.0] does not round-trip",
		}},
		{"translation mismatch", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].VCaches[0].Lines[0].MMUPA = 0x3000
			return s
		}, []string{
			"cpu 0: translation at V0[2.0]: vbase 0x4020 translates to 0x3000 but r-pointer says 0x1000",
		}},
		{"translation unmapped", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].VCaches[0].Lines[0].Mapped = false
			return s
		}, []string{
			"cpu 0: translation at V0[2.0]: vbase 0x4020 pid 1 unmapped",
		}},
		{"tlb frame stale", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].TLB[0].Frame = 99
			return s
		}, []string{
			"cpu 0: tlb at TLB[pid 1 page 0x4]: cached frame 0x63 but page tables say 0x1",
		}},
		{"tlb unmapped", func() *Snapshot {
			s := cleanSnapshot()
			s.CPUs[0].TLB[0].Mapped = false
			return s
		}, []string{
			"cpu 0: tlb at TLB[pid 1 page 0x4]: cached translation for an unmapped page",
		}},
		{"victim resident at the first level", func() *Snapshot {
			s := withVictim(cleanSnapshot())
			s.CPUs[0].Victim[0].PA = 0x1000
			return s
		}, []string{
			"cpu 0: victim-exclusive at VC[0x1000]: parked block also resident at the first level (V0[2.0])",
		}},
		{"victim not contained", func() *Snapshot {
			s := withVictim(cleanSnapshot())
			s.CPUs[0].Victim[0].PA = 0x9000
			return s
		}, []string{
			"cpu 0: victim-exclusive at VC[0x9000]: parked block not contained in the second level",
		}},
		{"victim token stale", func() *Snapshot {
			s := withVictim(cleanSnapshot())
			s.CPUs[0].Victim[0].Token = 3
			return s
		}, []string{
			"cpu 0: victim-exclusive at VC[0x2030]: parked token 3 but second level holds 0",
		}},
		{"victim token behind buffered write-back", func() *Snapshot {
			s := withVictim(cleanSnapshot())
			s.CPUs[0].Victim[0].PA = 0x1010
			return s
		}, []string{
			"cpu 0: victim-exclusive at VC[0x1010]: parked token 0 but second level holds 9",
		}},
		{"rlt entry dropped", func() *Snapshot {
			s := withRLT(cleanSnapshot())
			s.CPUs[0].RLT = s.CPUs[0].RLT[:1]
			return s
		}, []string{
			"cpu 0: rlt-reciprocity at RLT: 1 table entries but 2 first-level lines",
		}},
		{"rlt entry at absent line", func() *Snapshot {
			s := withRLT(cleanSnapshot())
			s.CPUs[0].RLT[1].VWay = 1
			return s
		}, []string{
			"cpu 0: rlt-reciprocity at RLT[0x2020]: entry points at absent line V0[3.1]",
		}},
		{"rlt entry keyed wrong", func() *Snapshot {
			s := withRLT(cleanSnapshot())
			s.CPUs[0].RLT[1].PA = 0x2030
			return s
		}, []string{
			"cpu 0: rlt-reciprocity at RLT[0x2030]: entry keyed 0x2030 but its line holds 0x2020",
		}},
		{"rlt entry disagrees with v-pointer", func() *Snapshot {
			s := withRLT(cleanSnapshot())
			s.CPUs[0].RLines[1].Subs[0].VSet = 4
			return s
		}, []string{
			"cpu 0: reciprocity at V0[3.0]: parent R[1.0.0] v-pointer V0[4.0] does not point back",
			"cpu 0: reciprocity at R[1.0.0]: v-pointer V0[4.0] to absent line",
			"cpu 0: rlt-reciprocity at RLT[0x2020]: entry V0[3.0] disagrees with subentry v-pointer V0[4.0]",
		}},
		{"no-inclusion dirty l1 shared", func() *Snapshot {
			s := noInclusion()
			s.CPUs[0].L1Lines[0].State = "shared"
			return s
		}, []string{
			"cpu 0: coherence at L1[0.0]: dirty block 0x1000 held shared",
		}},
		{"no-inclusion machinery used", func() *Snapshot {
			s := noInclusion()
			s.CPUs[0].RLines[0].Subs[1].Inclusion = true
			return s
		}, []string{
			"cpu 0: inclusion at R[0.0.1]: inclusion machinery used in the no-inclusion baseline",
		}},
		{"no-inclusion dirty l2 shared", func() *Snapshot {
			s := noInclusion()
			s.CPUs[0].RLines[0].Subs[1].RDirty = true
			return s
		}, []string{
			"cpu 0: coherence at R[0.0.1]: dirty block 0x2010 held shared",
		}},
		{"no-inclusion rlt present", func() *Snapshot {
			s := noInclusion()
			s.CPUs[0].HasRLT = true
			return s
		}, []string{
			"cpu 0: rlt-reciprocity at RLT: reverse-lookup table present outside the V-R organization",
		}},
		{"no-inclusion victim resident", func() *Snapshot {
			s := noInclusion()
			s.CPUs[0].HasVictim = true
			s.CPUs[0].Victim = []VictimEntry{{PA: 0x1000}, {PA: 0x2000, Token: 4}, {PA: 0x2010, Token: 1}}
			return s
		}, []string{
			"cpu 0: victim-exclusive at VC[0x1000]: parked block also resident at the first level (L1[0.0])",
			"cpu 0: victim-exclusive at VC[0x2010]: parked token 1 but second level holds 0",
		}},
		{"cross-cpu private r-cache line", func() *Snapshot {
			a, b := cleanCPU(), cleanCPU()
			b.CPU = 1
			a.RLines[1].State = "private"
			return &Snapshot{Organization: "VR", CPUs: []*CPUSnapshot{a, b}}
		}, []string{
			"machine: coherence at cpu 0 R[0.0]: block 0x1000 private here but also held by cpu 1 R[0.0]",
			"machine: coherence at cpu 1 R[0.0]: block 0x1000 private here but also held by cpu 0 R[0.0]",
			"machine: coherence at cpu 0 R[1.0]: block 0x2020 private here but also held by cpu 1 R[1.0]",
		}},
		{"cross-cpu private l1 line", func() *Snapshot {
			s := noInclusion()
			b := noInclusion().CPUs[0]
			b.CPU = 1
			b.L1Lines[0].Dirty = false
			b.L1Lines[0].State = "shared"
			s.CPUs = append(s.CPUs, b)
			return s
		}, []string{
			"machine: coherence at cpu 0 L1[0.0]: block 0x1000 private here but also held by cpu 1 L1[0.0]",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, v := range tc.snap().Check() {
				got = append(got, v.String())
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
