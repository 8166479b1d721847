// Package autotune searches the two-level hierarchy design space. A
// declarative grammar expands to thousands of candidate machine
// configurations; a 2D scheduler measures them cheaply by composing the
// sweep engine's fan-out (many configurations sharing one trace pass) with
// the checkpoint layer's approximate time shards (windows with warm-up);
// dominated candidates are pruned from the windowed probe measurements with
// a safety margin; and the surviving frontier is re-measured exactly on the
// full trace, so pruning can change the cost of the search but never its
// answer. The result is a deterministic Pareto frontier of measured average
// access time (internal/cycles) against total SRAM bits (the static cost
// model in cost.go).
package autotune

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/system"
)

// Grammar declares the design space as independent axes of system.Spec
// fields; Expand takes the cross product and keeps the combinations that
// form a legal machine. An empty axis (and a zero L1Block) takes the Spec's
// default, the paper's machine, so the zero grammar expands to that one
// machine.
type Grammar struct {
	// Organizations are hierarchy tokens: "vr", "rr", "rrnoincl", the
	// reverse-lookup-table synonym scheme "rlt", and the write-through
	// first-level variants "vr-wt" and "rr-wt".
	Organizations []string `json:"organizations"`

	L1Sizes  []uint64 `json:"l1Sizes"` // bytes
	L1Assocs []int    `json:"l1Assocs"`
	L1Block  uint64   `json:"l1Block"` // bytes

	L2Sizes  []uint64 `json:"l2Sizes"` // bytes
	L2Assocs []int    `json:"l2Assocs"`

	// BlockRatios are k = L2 block / L1 block (the paper's subentries per
	// line).
	BlockRatios []int `json:"blockRatios"`

	WriteBufDepths []int `json:"writeBufDepths"`

	TLBEntries []int `json:"tlbEntries"`
	TLBAssocs  []int `json:"tlbAssocs"`

	// Policies are replacement policies applied to both levels: "lru",
	// "fifo", "random".
	Policies []string `json:"policies"`

	// VictimEntries are victim-cache sizes in blocks; 0 means no victim
	// cache. The axis applies to every organization.
	VictimEntries []int `json:"victimEntries"`

	// RLTEntries are reverse-lookup synonym-table sizes for the "rlt"
	// organization; 0 lets the system pick its default (half the
	// first-level line count). Non-zero values are silently dropped for
	// organizations without an RLT, so mixing "vr" and "rlt" in one
	// grammar expands cleanly.
	RLTEntries []int `json:"rltEntries"`
}

// Candidate is one expanded configuration: the machine to build, its
// deterministic label, and its static cost.
type Candidate struct {
	Label  string
	Config system.Config
	Bits   uint64 // total SRAM bits (see SRAMBits)
}

// Expand takes the grammar's cross product for a machine with cpus
// processors and pageSize-byte pages. Each point is one system.Spec: an
// empty axis contributes the Spec's zero value, which resolves to the
// paper default, and points that do not form a legal machine are dropped.
// Candidates come out in deterministic axis-major order with unique
// labels; expanding the same grammar twice yields the identical slice.
func (g Grammar) Expand(cpus int, pageSize uint64) ([]Candidate, error) {
	for _, k := range g.BlockRatios {
		if k < 1 || !addr.IsPow2(uint64(k)) {
			return nil, fmt.Errorf("autotune: block ratio %d is not a positive power of two", k)
		}
	}
	// Tokens are checked up front: a point that is dropped before it is
	// built must not hide a misspelt one.
	for _, o := range g.Organizations {
		if _, _, err := system.ParseOrganization(o); err != nil {
			return nil, fmt.Errorf("autotune: %w", err)
		}
	}
	for _, p := range g.Policies {
		if _, err := cache.ParsePolicy(p); err != nil {
			return nil, fmt.Errorf("autotune: %w", err)
		}
	}
	l1Block := system.Spec{L1Block: g.L1Block}.WithDefaults().L1Block
	orgs, policies, ratios := orZero(g.Organizations), orZero(g.Policies), orZero(g.BlockRatios)
	l1Sizes, l1Assocs := nonZero(g.L1Sizes), nonZero(g.L1Assocs)
	l2Sizes, l2Assocs := nonZero(g.L2Sizes), nonZero(g.L2Assocs)
	wbDepths, tlbEntries, tlbAssocs := nonZero(g.WriteBufDepths), nonZero(g.TLBEntries), nonZero(g.TLBAssocs)
	victims, rltSizes := orZero(g.VictimEntries), orZero(g.RLTEntries)
	var out []Candidate
	for _, org := range orgs {
		for _, pol := range policies {
			for _, l1s := range l1Sizes {
				for _, l1a := range l1Assocs {
					for _, k := range ratios {
						for _, l2s := range l2Sizes {
							for _, l2a := range l2Assocs {
								for _, wb := range wbDepths {
									for _, te := range tlbEntries {
										for _, ta := range tlbAssocs {
											for _, vc := range victims {
												for _, re := range rltSizes {
													if re != 0 && org != "rlt" {
														// The RLT axis only exists on the
														// rlt organization; drop rather than
														// error so mixed grammars expand.
														continue
													}
													spec := system.Spec{
														Org: org, Policy: pol,
														L1Size: l1s, L1Assoc: l1a, L1Block: l1Block,
														L2Size: l2s, L2Assoc: l2a, L2Block: l1Block * uint64(k),
														TLBEntries: te, TLBAssoc: ta, WriteBufDepth: wb,
														Victim: vc, RLTEntries: re,
													}
													cfg, label, err := spec.Machine(cpus, pageSize)
													var se *system.SpecError
													if errors.As(err, &se) && se.Field == "" {
														continue // not a legal machine
													}
													if err != nil {
														return nil, fmt.Errorf("autotune: %w", err)
													}
													out = append(out, Candidate{Label: label, Config: cfg, Bits: SRAMBits(cfg)})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// orZero returns an axis's values, or the single zero value for an empty
// axis, which the Spec resolves to its default.
func orZero[T any](vs []T) []T {
	if len(vs) == 0 {
		return make([]T, 1)
	}
	return vs
}

// nonZero is orZero for an axis on which zero names no machine (a size,
// associativity, buffer depth or TLB shape): a listed zero is dropped like
// any other illegal point instead of turning into the default.
func nonZero[T comparable](vs []T) []T {
	var zero T
	out := make([]T, 0, len(vs))
	for _, v := range vs {
		if v != zero {
			out = append(out, v)
		}
	}
	if len(vs) == 0 {
		out = append(out, zero)
	}
	return out
}

// PaperGrammar is the default search space: the paper's Tables 6-11 axes
// widened to a four-digit candidate count (3 organizations x 2 policies x 3
// L1 sizes x 2 L1 assocs x 2 ratios x 3 L2 sizes x 2 L2 assocs x 2 buffer
// depths x 2 TLB shapes = 1728 legal candidates).
func PaperGrammar() Grammar {
	return Grammar{
		Organizations:  []string{"vr", "rr", "rrnoincl"},
		L1Sizes:        []uint64{4 << 10, 8 << 10, 16 << 10},
		L1Assocs:       []int{1, 2},
		L2Sizes:        []uint64{128 << 10, 256 << 10, 512 << 10},
		L2Assocs:       []int{1, 2},
		BlockRatios:    []int{2, 4},
		WriteBufDepths: []int{1, 4},
		TLBEntries:     []int{64, 128},
		Policies:       []string{"lru", "fifo"},
	}
}
