// Package system assembles a shared-bus multiprocessor (Figure 1 of the
// paper): N per-processor two-level hierarchies snooping one bus over one
// memory, all sharing an MMU. It drives traces through the machine,
// optionally checking a sequential-consistency oracle and the hierarchies'
// structural invariants after every reference.
package system

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Organization selects the cache organization under evaluation.
type Organization int

// Organizations the paper compares, plus the reverse-lookup-table synonym
// variant.
const (
	VR            Organization = iota // virtual L1 / real L2 with inclusion
	RRInclusion                       // real L1 / real L2 with inclusion
	RRNoInclusion                     // real L1 / real L2, independent levels
	VRRLT                             // VR with the reverse-lookup synonym table
)

// String returns the organization's table label.
func (o Organization) String() string {
	switch o {
	case VR:
		return "VR"
	case RRInclusion:
		return "RR(incl)"
	case RRNoInclusion:
		return "RR(no incl)"
	case VRRLT:
		return "VR(rlt)"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// ParseOrganization maps a hierarchy token — "vr", "rr", "rrnoincl", "rlt",
// or a write-through first-level variant "vr-wt", "rr-wt" — to the
// organization and whether its first level writes through.
func ParseOrganization(tok string) (org Organization, writeThrough bool, err error) {
	switch tok {
	case "vr":
		return VR, false, nil
	case "rr":
		return RRInclusion, false, nil
	case "rrnoincl":
		return RRNoInclusion, false, nil
	case "rlt":
		return VRRLT, false, nil
	case "vr-wt":
		return VR, true, nil
	case "rr-wt":
		return RRInclusion, true, nil
	default:
		return 0, false, fmt.Errorf("unknown organization %q (vr, rr, rrnoincl, rlt, vr-wt, rr-wt)", tok)
	}
}

// Config describes a machine.
type Config struct {
	CPUs         int
	Organization Organization
	PageSize     uint64 // default 4096

	L1    cache.Geometry
	Split bool
	L2    cache.Geometry

	TLBEntries      int
	TLBAssoc        int
	WriteBufDepth   int
	WriteBufLatency uint64
	EagerCtxFlush   bool

	// L1Policy and L2Policy select each level's replacement policy; the
	// zero value is LRU (the paper's). PolicySeed seeds Random replacement
	// deterministically per cache.
	L1Policy   cache.Policy
	L2Policy   cache.Policy
	PolicySeed int64

	// PIDTagged enables the Section 2 PID-tag alternative to flushing the
	// V-cache on context switches (V-R only).
	PIDTagged bool
	// Protocol selects the coherence protocol (default write-invalidate).
	Protocol core.Protocol
	// NaiveL2Replacement disables the relaxed-inclusion victim preference.
	NaiveL2Replacement bool
	// L1WriteThrough selects the Section 2 write-through, no-write-allocate
	// first-level policy instead of write-back.
	L1WriteThrough bool
	// VictimEntries inserts a victim cache of that many blocks between the
	// levels of every CPU (any organization; 0 disables).
	VictimEntries int
	// RLTEntries sizes the VRRLT organization's reverse-lookup synonym
	// table; 0 defaults to half the first level's line count. RLTAssoc is
	// the table's associativity (0: rlt.DefaultAssoc). Ignored by the other
	// organizations.
	RLTEntries int
	RLTAssoc   int
	// Tracer, when set, observes every hierarchy's Table 4 interface
	// signals (Signal.CPU attributes them).
	Tracer core.Tracer
	// Probe, when set, receives typed events from every hierarchy, the
	// bus, and any DMA agents (see internal/probe). Nil disables all
	// emission.
	Probe *probe.Probe
	// ProbeEphemeral marks the attached Probe as observational-only for
	// checkpointing purposes. Export/RestoreState normally refuse a
	// machine with a probe because the probe's internal cursors (ring
	// positions, window boundaries, the reference counter) are not
	// serialized; with ProbeEphemeral set the caller accepts that a
	// restored run's observability output restarts from zero. Simulated
	// state — and therefore the statistics report — is unaffected either
	// way. The job server uses this to stream progress windows from
	// checkpointable jobs whose reports exclude the probe section.
	ProbeEphemeral bool
	// Cycles, when set, measures per-CPU access times: the system charges
	// each reference's service time (t1/t2/tm) and context-switch cost,
	// the hierarchies charge TLB penalties, write-back occupancy and
	// stalls, and the bus arbitrates timed transactions through it. Nil
	// disables all cycle accounting.
	Cycles *cycles.Engine

	// Audit, when set, re-verifies the machine's structural invariants
	// online: the auditor snapshots every hierarchy and checks inclusion,
	// copy uniqueness, pointer reciprocity, buffer-bit bijection, dirty-bit
	// consistency and cross-CPU coherence every N references (see
	// internal/audit). Nil disables auditing; the hot path then pays only a
	// nil check.
	Audit *audit.Auditor

	// CheckOracle verifies on every read that the newest write to the
	// physical block is observed. To validate the structural invariants
	// after every reference as well, set Audit to audit.New(1).
	CheckOracle bool
}

func (c *Config) applyDefaults() {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.CPUs == 0 {
		c.CPUs = 1
	}
}

// System is an assembled machine.
type System struct {
	cfg    Config
	mmu    *vm.MMU
	bus    *bus.Bus
	mem    *memory.Memory
	tokens *core.TokenSource
	cpus   []core.Hierarchy
	cyc    []*cycles.CPU  // per-CPU timing handles; nil entries when disabled
	aud    *audit.Auditor // nil when auditing is disabled
	oracle map[addr.PAddr]uint64
	refs   uint64
}

// New builds a machine from cfg.
func New(cfg Config) (*System, error) {
	cfg.applyDefaults()
	if cfg.CPUs < 1 || cfg.CPUs > 255 {
		return nil, fmt.Errorf("system: %d CPUs out of range", cfg.CPUs)
	}
	// Validate geometries up front: the memory and per-CPU constructors
	// below assume a legal L1 block size.
	if err := cfg.L1.Validate(); err != nil {
		return nil, fmt.Errorf("system: L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return nil, fmt.Errorf("system: L2: %w", err)
	}
	// The reverse-lookup table exists only under VRRLT; a size on any other
	// organization would be silently ignored, so reject it instead (the CLI
	// and job surfaces enforce the same rule).
	if (cfg.RLTEntries != 0 || cfg.RLTAssoc != 0) && cfg.Organization != VRRLT {
		return nil, fmt.Errorf("system: RLTEntries/RLTAssoc require the VRRLT organization")
	}
	mmu, err := vm.New(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		mmu:    mmu,
		bus:    bus.New(),
		mem:    memory.MustNew(cfg.L1.Block),
		tokens: &core.TokenSource{},
		aud:    cfg.Audit,
	}
	s.bus.SetProbe(cfg.Probe)
	if cfg.Cycles != nil {
		s.bus.SetTimer(cfg.Cycles)
	}
	if cfg.CheckOracle {
		s.oracle = make(map[addr.PAddr]uint64)
	}
	for i := 0; i < cfg.CPUs; i++ {
		opts := core.Options{
			MMU:             s.mmu,
			Bus:             s.bus,
			Mem:             s.mem,
			Tokens:          s.tokens,
			L1:              cfg.L1,
			Split:           cfg.Split,
			L2:              cfg.L2,
			TLBEntries:      cfg.TLBEntries,
			TLBAssoc:        cfg.TLBAssoc,
			WriteBufDepth:   cfg.WriteBufDepth,
			WriteBufLatency: cfg.WriteBufLatency,
			EagerCtxFlush:   cfg.EagerCtxFlush,
			L1Policy:        cfg.L1Policy,
			L2Policy:        cfg.L2Policy,
			PolicySeed:      cfg.PolicySeed + int64(i)*1000,
			PIDTagged:       cfg.PIDTagged,
			Protocol:        cfg.Protocol,

			NaiveL2Replacement: cfg.NaiveL2Replacement,
			L1WriteThrough:     cfg.L1WriteThrough,
			VictimEntries:      cfg.VictimEntries,
			Tracer:             cfg.Tracer,
			Probe:              cfg.Probe,
			Cycles:             cfg.Cycles,
		}
		var h core.Hierarchy
		switch cfg.Organization {
		case VR:
			h, err = core.NewVR(opts)
		case RRInclusion:
			h, err = core.NewRR(opts)
		case RRNoInclusion:
			h, err = core.NewRRNoInclusion(opts)
		case VRRLT:
			opts.RLTEntries = cfg.RLTEntries
			opts.RLTAssoc = cfg.RLTAssoc
			if opts.RLTEntries == 0 {
				// Default: the largest power of two no bigger than half the
				// first level's line count — small enough that capacity
				// evictions actually occur (the trade-off stays visible),
				// and a legal set count for any associativity.
				lines := int(cfg.L1.Size / cfg.L1.Block)
				opts.RLTEntries = 1
				for opts.RLTEntries*2 <= lines/2 {
					opts.RLTEntries *= 2
				}
			}
			h, err = core.NewVR(opts)
		default:
			err = fmt.Errorf("system: unknown organization %d", cfg.Organization)
		}
		if err != nil {
			return nil, err
		}
		s.cpus = append(s.cpus, h)
		// Hierarchies attach to the bus in CPU order, so CPU i's snooper
		// (and timing agent) id is i.
		s.cyc = append(s.cyc, cfg.Cycles.CPU(i))
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// MMU exposes the machine's MMU so workloads can set up shared mappings.
func (s *System) MMU() *vm.MMU { return s.mmu }

// Memory exposes the machine's memory.
func (s *System) Memory() *memory.Memory { return s.mem }

// Bus exposes the machine's bus.
func (s *System) Bus() *bus.Bus { return s.bus }

// CPUs returns the number of processors.
func (s *System) CPUs() int { return len(s.cpus) }

// CPU returns processor i's hierarchy.
func (s *System) CPU(i int) core.Hierarchy { return s.cpus[i] }

// Stats returns processor i's counters.
func (s *System) Stats(i int) *core.Stats { return s.cpus[i].Stats() }

// Refs returns the number of memory references applied so far.
func (s *System) Refs() uint64 { return s.refs }

// Probe returns the machine's event probe (nil when observability is
// disabled).
func (s *System) Probe() *probe.Probe { return s.cfg.Probe }

// Cycles returns the machine's cycle engine (nil when timing is disabled).
func (s *System) Cycles() *cycles.Engine { return s.cfg.Cycles }

// Config returns the machine's (defaults-applied) configuration, so
// attached tooling — the telemetry layer needs the L2 geometry and page
// size — can describe the machine it is observing.
func (s *System) Config() Config { return s.cfg }

// Apply runs one trace record through the machine.
func (s *System) Apply(ref trace.Ref) (core.AccessResult, error) {
	if int(ref.CPU) >= len(s.cpus) {
		return core.AccessResult{}, fmt.Errorf("system: record for CPU %d on a %d-CPU machine",
			ref.CPU, len(s.cpus))
	}
	if s.cfg.Probe != nil && ref.Kind != trace.CtxSwitch {
		s.cfg.Probe.AdvanceRef()
	}
	res := s.cpus[ref.CPU].Access(ref)
	if res.CtxSwitch {
		s.cyc[ref.CPU].CtxSwitch()
	} else {
		s.refs++
		if res.VictimHit {
			s.cyc[ref.CPU].EndAccessVictim(res.Kind)
		} else {
			s.cyc[ref.CPU].EndAccess(res.Kind, res.Level())
		}
	}
	if s.oracle != nil && !res.CtxSwitch {
		if ref.Kind == trace.Write {
			s.oracle[res.PA] = res.Token
		} else if want := s.oracle[res.PA]; res.Token != want {
			return res, fmt.Errorf("system: oracle violation: cpu %d %v %#x (pa %#x) read token %d, want %d",
				ref.CPU, ref.Kind, uint64(ref.Addr), uint64(res.PA), res.Token, want)
		}
	}
	if s.aud != nil {
		s.aud.Tick(s)
	}
	return res, nil
}

// Auditor returns the machine's online auditor (nil when auditing is
// disabled).
func (s *System) Auditor() *audit.Auditor { return s.aud }

// AuditSnapshot implements audit.Source: a point-in-time copy of every
// hierarchy's structural state, in CPU order.
func (s *System) AuditSnapshot() *audit.Snapshot {
	snap := &audit.Snapshot{
		Organization: s.cfg.Organization.String(),
		Protocol:     s.cfg.Protocol.String(),
		Refs:         s.refs,
	}
	for _, h := range s.cpus {
		snap.CPUs = append(snap.CPUs, h.Snapshot())
	}
	return snap
}

// ApplyBatch runs a slice of trace records through the machine. It is the
// batched entry point the sweep engine uses: one call per batch instead of
// one interface call per reference.
func (s *System) ApplyBatch(refs []trace.Ref) error {
	for _, ref := range refs {
		if _, err := s.Apply(ref); err != nil {
			return err
		}
	}
	return nil
}

// runBatchSize is the slice length Run reads at a time; large enough to
// amortize the Reader interface call, small enough to stay cache-resident.
const runBatchSize = 4096

// Run drives every record from r through the machine and drains the write
// buffers at the end. Reads go through the batched path (trace.FillBatch),
// so readers implementing trace.BatchReader are consumed a slice at a time.
func (s *System) Run(r trace.Reader) error {
	buf := make([]trace.Ref, runBatchSize)
	for {
		n, err := trace.FillBatch(r, buf)
		if aerr := s.ApplyBatch(buf[:n]); aerr != nil {
			return aerr
		}
		if errors.Is(err, io.EOF) {
			s.Drain()
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Drain empties every write buffer into the second level.
func (s *System) Drain() {
	for _, h := range s.cpus {
		h.Drain()
	}
}

// ResetStats zeroes every statistic — per-CPU, bus and memory — without
// touching cache contents, so measurements can exclude warm-up. The
// reference count restarts too.
func (s *System) ResetStats() {
	for _, h := range s.cpus {
		h.Stats().Reset()
	}
	s.bus.ResetStats()
	s.mem.ResetStats()
	if s.cfg.Cycles != nil {
		s.cfg.Cycles.Reset()
	}
	s.refs = 0
}

// AggregateStats sums hit-ratio statistics across CPUs, the form the
// paper's Tables 6-10 report.
type AggregateStats struct {
	L1, L2 struct {
		Overall   float64
		DataRead  float64
		DataWrite float64
		Instr     float64
	}
	H1, H2 float64 // aliases of the overall ratios, the paper's h1/h2
}

// Aggregate computes machine-wide hit ratios.
func (s *System) Aggregate() AggregateStats {
	var l1, l2 stats.LevelStats
	for _, h := range s.cpus {
		st := h.Stats()
		l1.Add(&st.L1)
		l2.Add(&st.L2)
	}
	var a AggregateStats
	a.L1.Overall = l1.Overall().Value()
	a.L1.DataRead = l1.Kind(stats.KindRead).Value()
	a.L1.DataWrite = l1.Kind(stats.KindWrite).Value()
	a.L1.Instr = l1.Kind(stats.KindIFetch).Value()
	a.L2.Overall = l2.Overall().Value()
	a.L2.DataRead = l2.Kind(stats.KindRead).Value()
	a.L2.DataWrite = l2.Kind(stats.KindWrite).Value()
	a.L2.Instr = l2.Kind(stats.KindIFetch).Value()
	a.H1, a.H2 = a.L1.Overall, a.L2.Overall
	return a
}

// CoherenceMessages returns, per CPU, the number of coherence messages that
// reached the first-level cache — the quantity of Tables 11-13.
func (s *System) CoherenceMessages() []uint64 {
	out := make([]uint64, len(s.cpus))
	for i, h := range s.cpus {
		out[i] = h.Stats().Coherence.Total()
	}
	return out
}
