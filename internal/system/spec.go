package system

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
)

// Spec is one machine as a user states it: the paper's parameter set (a
// first-level V- or R-cache, a second-level R-cache with B2 = k·B1, a TLB,
// one write buffer and a replacement policy) with the organization and
// policy as tokens. Zero fields take the paper's machine (see
// WithDefaults). The CPU count and page size are not part of it: the
// workload fixes both. The command line, the job server (whose
// jobs.MachineSpec is this type, so the JSON tags are its submission
// schema) and the autotuner's grammar points all resolve through Machine.
type Spec struct {
	Label string `json:"label,omitempty"`
	Org   string `json:"org,omitempty"` // vr | rr | rrnoincl | rlt | vr-wt | rr-wt

	L1Size  uint64 `json:"l1Size,omitempty"`
	L1Assoc int    `json:"l1Assoc,omitempty"`
	L1Block uint64 `json:"l1Block,omitempty"`
	Split   bool   `json:"split,omitempty"`

	L2Size  uint64 `json:"l2Size,omitempty"`
	L2Assoc int    `json:"l2Assoc,omitempty"`
	L2Block uint64 `json:"l2Block,omitempty"`

	TLBEntries    int    `json:"tlbEntries,omitempty"`
	TLBAssoc      int    `json:"tlbAssoc,omitempty"`
	WriteBufDepth int    `json:"writeBufDepth,omitempty"`
	Policy        string `json:"policy,omitempty"` // lru | fifo | random

	// Victim inserts a victim cache of that many blocks (any organization);
	// 0 means none. RLTEntries sizes the "rlt" organization's reverse-lookup
	// table (0 selects the system default) and is rejected elsewhere.
	Victim     int `json:"victim,omitempty"`
	RLTEntries int `json:"rltEntries,omitempty"`
}

// WithDefaults returns s with every zero field set to the paper's machine:
// organization vr, a 16K direct-mapped L1 with 16-byte blocks, a 256K
// direct-mapped L2 with blocks twice the L1's, a 64-entry 2-way TLB, a
// depth-1 write buffer and LRU replacement. Victim, RLTEntries, Split and
// Label have no default.
func (s Spec) WithDefaults() Spec {
	orDefault(&s.Org, "vr")
	orDefault(&s.L1Size, 16<<10)
	orDefault(&s.L1Assoc, 1)
	orDefault(&s.L1Block, 16)
	orDefault(&s.L2Size, 256<<10)
	orDefault(&s.L2Assoc, 1)
	orDefault(&s.L2Block, 2*s.L1Block)
	orDefault(&s.TLBEntries, 64)
	orDefault(&s.TLBAssoc, 2)
	orDefault(&s.WriteBufDepth, 1)
	orDefault(&s.Policy, "lru")
	return s
}

func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// SpecError rejects a Spec. Field is the JSON name of the offending field;
// it is empty when the fields do not form a legal machine together.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return e.Msg }

// Machine resolves s, defaults applied, into the Config of a machine with
// cpus processors and pageSize-byte pages (no observers attached) and the
// machine's label. The label is s.Label when set, otherwise
// "org/policy/L1=…/L2=…/wb=…/tlb=…x…" with "/vc=…", "/rlt=…" and "/split"
// appended for the features in use. Every error is a *SpecError.
func (s Spec) Machine(cpus int, pageSize uint64) (Config, string, error) {
	d := s.WithDefaults()
	org, writeThrough, err := ParseOrganization(d.Org)
	if err != nil {
		return Config{}, "", &SpecError{Field: "org", Msg: err.Error()}
	}
	pol, err := cache.ParsePolicy(d.Policy)
	if err != nil {
		return Config{}, "", &SpecError{Field: "policy", Msg: err.Error()}
	}
	if d.RLTEntries != 0 && org != VRRLT {
		return Config{}, "", &SpecError{Field: "rltEntries", Msg: "only the rlt organization has a reverse-lookup table"}
	}
	if d.L2Block%d.L1Block != 0 {
		return Config{}, "", &SpecError{Field: "l2Block",
			Msg: fmt.Sprintf("%d is not a multiple of the L1 block (%d)", d.L2Block, d.L1Block)}
	}
	cfg := Config{
		CPUs:           cpus,
		Organization:   org,
		PageSize:       pageSize,
		L1:             cache.Geometry{Size: d.L1Size, Block: d.L1Block, Assoc: d.L1Assoc},
		Split:          d.Split,
		L2:             cache.Geometry{Size: d.L2Size, Block: d.L2Block, Assoc: d.L2Assoc},
		TLBEntries:     d.TLBEntries,
		TLBAssoc:       d.TLBAssoc,
		WriteBufDepth:  d.WriteBufDepth,
		L1Policy:       pol,
		L2Policy:       pol,
		L1WriteThrough: writeThrough,
		VictimEntries:  d.Victim,
		RLTEntries:     d.RLTEntries,
	}
	// The simulator accepts valid geometries with an L2 strictly larger than
	// the L1, a power-of-two TLB no wider than its entry count, a write
	// buffer, and a reverse-lookup table only of power-of-two size (rlt.New
	// needs a power-of-two set count, which the default associativity,
	// clamped to the entry count, then gives).
	if cfg.L1.Validate() != nil || cfg.L2.Validate() != nil || d.L2Size <= d.L1Size ||
		d.TLBAssoc <= 0 || d.TLBAssoc > d.TLBEntries ||
		!addr.IsPow2(uint64(d.TLBEntries)) || !addr.IsPow2(uint64(d.TLBAssoc)) ||
		d.WriteBufDepth < 1 || d.Victim < 0 || d.RLTEntries < 0 ||
		d.RLTEntries > 0 && !addr.IsPow2(uint64(d.RLTEntries)) {
		return Config{}, "", &SpecError{Msg: "does not form a legal machine (check power-of-two sizes, L1 < L2, block ratio)"}
	}
	label := s.Label
	if label == "" {
		label = fmt.Sprintf("%s/%s/L1=%s/L2=%s/wb=%d/tlb=%dx%d",
			d.Org, d.Policy, cfg.L1, cfg.L2, d.WriteBufDepth, d.TLBEntries, d.TLBAssoc)
		if d.Victim != 0 {
			label += fmt.Sprintf("/vc=%d", d.Victim)
		}
		if d.RLTEntries != 0 {
			label += fmt.Sprintf("/rlt=%d", d.RLTEntries)
		}
		if d.Split {
			label += "/split"
		}
	}
	return cfg, label, nil
}
