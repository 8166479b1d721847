package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// batchRecords is the slice length the benchmark reads and applies at a
// time, the same as system.Run's.
const batchRecords = 4096

var orgs = []struct {
	name string
	org  system.Organization
}{
	{"vr", system.VR},
	{"rr", system.RRInclusion},
	{"rrnoincl", system.RRNoInclusion},
	{"rlt", system.VRRLT},
}

var presetNames = []string{"pops", "thor", "abaqus"}

// workloadConfig returns preset name shrunk to scale of its references,
// with the benchmark seed folded into the generator's seed. Seed 0 keeps
// the preset's own seed, so its traces are the ones vrsim generates. The
// context-switch quantum is kept at its full-scale value.
func workloadConfig(name string, scale float64, seed int64) (tracegen.Config, error) {
	cfg, err := tracegen.PresetByName(name)
	if err != nil {
		return cfg, err
	}
	cfg = cfg.ScaledRefsOnly(scale)
	cfg.Seed += seed * 1_000_003
	return cfg, nil
}

// vrsimTimed is the cycle model `vrsim -timed` arms by default.
var vrsimTimed = cycles.Params{T1: 1, T2: 4, TM: 20, Contention: true}

// machineConfig is vrsim's default machine (16K/256K direct-mapped, 16-
// and 32-byte blocks) for a workload and organization.
func machineConfig(wl tracegen.Config, org system.Organization) system.Config {
	return system.Config{
		CPUs:         wl.CPUs,
		Organization: org,
		PageSize:     wl.PageSize,
		L1:           cache.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
	}
}

// newMachine builds a machine and maps the workload's shared segment,
// inside spans of the system layer.
func newMachine(sc scope, wl tracegen.Config, cfg system.Config, timed bool, pr *probe.Probe) (*system.System, error) {
	sp := sc.span("system", "system.New")
	defer sp.end(0, 0)
	if timed {
		eng, err := cycles.New(vrsimTimed, pr)
		if err != nil {
			return nil, err
		}
		cfg.Cycles = eng
	}
	cfg.Probe = pr
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
		return nil, err
	}
	return sys, nil
}

// newGenerator creates the workload's trace generator.
func newGenerator(sc scope, wl tracegen.Config) (*tracegen.Generator, error) {
	sp := sc.span("tracegen", "tracegen.New")
	defer sp.end(0, 0)
	return tracegen.New(wl)
}

// stream drives up to limit records (all of them when limit is 0) from gen
// through sys, a batch at a time, and reports how many it applied and
// whether the trace ended.
func stream(sc scope, gen *tracegen.Generator, sys *system.System, buf []trace.Ref, limit uint64) (records uint64, eof bool, err error) {
	for limit == 0 || records < limit {
		want := buf
		if limit > 0 && uint64(len(want)) > limit-records {
			want = want[:limit-records]
		}
		sp := sc.span("tracegen", "Generator.ReadBatch")
		n, rerr := gen.ReadBatch(want)
		sp.end(uint64(n), 0)
		if n > 0 {
			sp := sc.span("system", "System.ApplyBatch")
			aerr := sys.ApplyBatch(want[:n])
			sp.end(uint64(n), 0)
			if aerr != nil {
				return records, false, aerr
			}
			records += uint64(n)
		}
		if errors.Is(rerr, io.EOF) {
			return records, true, nil
		}
		if rerr != nil {
			return records, false, rerr
		}
	}
	return records, false, nil
}

// drain empties the machine's write buffers.
func drain(sc scope, sys *system.System) {
	sp := sc.span("system", "System.Drain")
	sys.Drain()
	sp.end(0, 0)
}

// reportBytes renders the machine's statistics as vrsim -json does, minus
// the build stamp, which names the toolchain and revision rather than
// anything simulated.
func reportBytes(sys *system.System) ([]byte, error) {
	res := report.FromSystem(sys, sys.Config())
	res.Build = nil
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return buf.Bytes(), nil
}

// misses sums first- and second-level misses over every CPU.
func misses(sys *system.System) (l1, l2 uint64) {
	for i := 0; i < sys.CPUs(); i++ {
		st := sys.Stats(i)
		l1 += st.L1.Overall().Misses()
		l2 += st.L2.Overall().Misses()
	}
	return l1, l2
}
