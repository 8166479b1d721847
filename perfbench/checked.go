package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// checkedScale shrinks each preset's references; auditEvery and
// checkpointEvery are the cadences in trace records. At these settings
// audits and checkpoint round trips take most of a pass.
var checkedScale = map[string]float64{"pops": 0.1, "abaqus": 0.25}

const (
	auditEvery      = 25_000
	checkpointEvery = 100_000
)

var checkedPresets = []string{"pops", "abaqus"}

// checkedRun runs a V-R machine on pops and on abaqus with the invariant
// auditor at a fixed cadence and a checkpoint round trip (Capture →
// Encode → Decode → Restore into a fresh machine, which continues the run)
// at another. Its final report must equal an uninterrupted run's.
type checkedRun struct {
	buf  []trace.Ref
	last map[string][]byte // final report of the latest pass, by preset
}

func (w *checkedRun) start(b *bench) error {
	w.buf = make([]trace.Ref, batchRecords)
	w.last = map[string][]byte{}
	return nil
}

func (w *checkedRun) pass(b *bench, i int) (passResult, error) {
	var res passResult
	var setup float64
	for _, p := range checkedPresets {
		wl, err := workloadConfig(p, checkedScale[p], b.seed)
		if err != nil {
			return res, err
		}
		root := b.tr.root(0, "bench", "checked "+p)
		t0 := time.Now()
		gen, err := newGenerator(root, wl)
		if err != nil {
			return res, err
		}
		cfg := machineConfig(wl, system.VR)
		sys, err := newMachine(root, wl, cfg, false, nil)
		if err != nil {
			return res, err
		}
		setup += time.Since(t0).Seconds()
		m := startMeter()
		sys, lat, err := w.checked(b, root, p, wl, cfg, gen, sys)
		wall, cpu := m.stop()
		res.wall += wall
		res.cpu += cpu
		res.lat = append(res.lat, lat...)
		out, rerr := reportBytes(sys)
		if err != nil {
			rerr = err
		}
		b.gate.check(fmt.Sprintf("checked-run/seed%d/%s/checked", b.seed, p), out, rerr, false)
		w.last[p] = out
		res.refs += sys.Refs()
		l1, l2 := misses(sys)
		res.l1 += l1
		res.l2 += l2
		root.end(sys.Refs(), 0)
	}
	b.setups = append(b.setups, setup)
	return res, nil
}

// checked streams the whole trace through sys, auditing every auditEvery
// records and moving the run into a fresh machine through a checkpoint
// every checkpointEvery records. It returns the machine that finished the
// run and each round trip's latency in ms.
func (w *checkedRun) checked(b *bench, sc scope, preset string, wl tracegen.Config, cfg system.Config,
	gen *tracegen.Generator, sys *system.System) (*system.System, []float64, error) {
	var lat []float64
	sig := "perfbench " + preset
	var records uint64
	for {
		next := (records/auditEvery + 1) * auditEvery
		if c := (records/checkpointEvery + 1) * checkpointEvery; c < next {
			next = c
		}
		n, eof, err := stream(sc, gen, sys, w.buf, next-records)
		records += n
		if err != nil {
			return sys, lat, err
		}
		if eof {
			break
		}
		if records%auditEvery == 0 {
			auditOnce(b, sc, sys, preset, records)
		}
		if records%checkpointEvery == 0 {
			t0 := time.Now()
			fresh, err := roundTrip(sc, sys, wl, cfg, sig, records)
			if err != nil {
				return sys, lat, err
			}
			sys = fresh
			lat = append(lat, time.Since(t0).Seconds()*1e3)
		}
	}
	drain(sc, sys)
	// vrsim finishes an audited run with one more audit of the final state.
	auditOnce(b, sc, sys, preset, records)
	return sys, lat, nil
}

// auditOnce snapshots the machine and checks every invariant; a violation
// fails the run's operation.
func auditOnce(b *bench, sc scope, sys *system.System, preset string, records uint64) {
	sp := sc.span("audit", "System.AuditSnapshot")
	snap := sys.AuditSnapshot()
	sp.end(0, 0)
	sp = sc.span("audit", "Snapshot.Check")
	found := snap.Check()
	sp.end(0, 0)
	if len(found) > 0 {
		b.gate.fail("checked-run/%s: %d invariant violation(s) at record %d, first: %v",
			preset, len(found), records, found[0])
	}
}

// roundTrip captures sys, encodes and decodes the checkpoint, and restores
// it into a freshly built machine, which it returns.
func roundTrip(sc scope, sys *system.System, wl tracegen.Config, cfg system.Config, sig string, cursor uint64) (*system.System, error) {
	sp := sc.span("checkpoint", "checkpoint.Capture")
	ck, err := checkpoint.Capture(sys, sig, cursor)
	sp.end(0, 0)
	if err != nil {
		return nil, err
	}
	sp = sc.span("checkpoint", "Checkpoint.Encode")
	data := ck.Encode()
	sp.end(0, uint64(len(data)))
	sp = sc.span("checkpoint", "checkpoint.Decode")
	ck, err = checkpoint.Decode(data)
	sp.end(0, 0)
	if err != nil {
		return nil, err
	}
	fresh, err := newMachine(sc, wl, cfg, false, nil)
	if err != nil {
		return nil, err
	}
	sp = sc.span("checkpoint", "checkpoint.Restore")
	err = checkpoint.Restore(fresh, ck, sig)
	sp.end(0, 0)
	return fresh, err
}

// finish runs each preset once more without interruption, after the
// measured phase, and requires the checked runs' reports to equal it. The
// default seed's uninterrupted reports are also compared with the recorded
// digests, whatever seed the run used.
func (w *checkedRun) finish(b *bench) error {
	for _, p := range checkedPresets {
		seeds := []int64{b.seed}
		if b.seed != 0 {
			seeds = append(seeds, 0)
		}
		for _, seed := range seeds {
			out, err := uninterrupted(p, seed, w.buf)
			if err != nil {
				b.gate.fail("checked-run/%s: uninterrupted run: %v", p, err)
				continue
			}
			b.gate.check(fmt.Sprintf("checked-run/seed%d/%s/uninterrupted", seed, p), out, nil, seed == 0)
			if seed == b.seed {
				b.gate.expectEqual(fmt.Sprintf("checked-run/seed%d/%s: resumed == uninterrupted", seed, p), w.last[p], out)
			}
		}
	}
	return nil
}

// uninterrupted runs the checked workload's machine straight through.
func uninterrupted(preset string, seed int64, buf []trace.Ref) ([]byte, error) {
	wl, err := workloadConfig(preset, checkedScale[preset], seed)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(scope{}, wl)
	if err != nil {
		return nil, err
	}
	sys, err := newMachine(scope{}, wl, machineConfig(wl, system.VR), false, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := stream(scope{}, gen, sys, buf, 0); err != nil {
		return nil, err
	}
	sys.Drain()
	return reportBytes(sys)
}
