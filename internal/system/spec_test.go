package system

import (
	"errors"
	"testing"

	"repro/internal/cache"
)

func TestSpecDefaults(t *testing.T) {
	cfg, label, err := Spec{}.Machine(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		CPUs: 4, Organization: VR, PageSize: 4096,
		L1:         cache.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
		L2:         cache.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
		TLBEntries: 64, TLBAssoc: 2, WriteBufDepth: 1,
	}
	if cfg != want {
		t.Errorf("paper machine:\ngot  %+v\nwant %+v", cfg, want)
	}
	if want := "vr/lru/L1=16K/16B/1-way/L2=256K/32B/1-way/wb=1/tlb=64x2"; label != want {
		t.Errorf("label %q, want %q", label, want)
	}
	// The L2 block defaults to twice the L1 block actually chosen.
	if cfg, _, _ := (Spec{L1Block: 32}).Machine(1, 0); cfg.L2.Block != 64 {
		t.Errorf("L2 block %d under a 32-byte L1 block, want 64", cfg.L2.Block)
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Label: "mine", Split: true}, "mine"},
		{Spec{Org: "rlt", Policy: "fifo", Victim: 4, RLTEntries: 16, Split: true},
			"rlt/fifo/L1=16K/16B/1-way/L2=256K/32B/1-way/wb=1/tlb=64x2/vc=4/rlt=16/split"},
	} {
		if _, label, err := c.spec.Machine(1, 0); err != nil || label != c.want {
			t.Errorf("%+v: label %q, %v; want %q", c.spec, label, err, c.want)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  Spec
		field string // "" for a combination that is not a legal machine
	}{
		{"unknown organization", Spec{Org: "ringbus"}, "org"},
		{"unknown policy", Spec{Policy: "plru"}, "policy"},
		{"rlt entries off rlt", Spec{Org: "vr", RLTEntries: 16}, "rltEntries"},
		{"l2 block not a multiple", Spec{L1Block: 16, L2Block: 24}, "l2Block"},
		{"l2 block below l1", Spec{L1Block: 32, L2Block: 16}, "l2Block"},
		{"non-power-of-two size", Spec{L1Size: 12345}, ""},
		{"non-power-of-two block ratio", Spec{L1Block: 16, L2Block: 48}, ""},
		{"l1 not below l2", Spec{L1Size: 256 << 10, L2Size: 64 << 10}, ""},
		{"tlb wider than entries", Spec{TLBEntries: 2, TLBAssoc: 4}, ""},
		{"non-power-of-two tlb", Spec{TLBEntries: 48}, ""},
		{"negative write buffer", Spec{WriteBufDepth: -1}, ""},
		{"negative victim cache", Spec{Victim: -1}, ""},
		{"non-power-of-two rlt", Spec{Org: "rlt", RLTEntries: 12}, ""},
	} {
		_, _, err := c.spec.Machine(1, 0)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *SpecError", c.name, err)
			continue
		}
		if se.Field != c.field {
			t.Errorf("%s: field %q (%v), want %q", c.name, se.Field, err, c.field)
		}
	}
}
