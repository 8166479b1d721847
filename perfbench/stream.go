package main

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// streamScale shrinks each preset's reference count (context-switch
// quantum kept), so one pass of twelve timed machines takes about two
// seconds on one core.
const streamScale = 0.1

// machineStream runs one timed machine at a time for every preset and
// organization, driving Generator.ReadBatch → System.ApplyBatch → Drain
// as `vrsim -preset P -org O -timed` does.
type machineStream struct {
	buf []trace.Ref
}

func (w *machineStream) start(b *bench) error {
	w.buf = make([]trace.Ref, batchRecords)
	return nil
}

func (w *machineStream) pass(b *bench, i int) (passResult, error) {
	res, setup, err := w.run(b, b.seed, true)
	b.setups = append(b.setups, setup)
	return res, err
}

// run streams every machine once for seed; measure is false for the
// verification pass, which records no spans or samples.
func (w *machineStream) run(b *bench, seed int64, measure bool) (res passResult, setup float64, err error) {
	for _, p := range presetNames {
		wl, err := workloadConfig(p, streamScale, seed)
		if err != nil {
			return res, 0, err
		}
		for _, o := range orgs {
			root := scope{}
			if measure {
				root = b.tr.root(0, "bench", "machine "+p+"/"+o.name)
			}
			t0 := time.Now()
			gen, err := newGenerator(root, wl)
			if err != nil {
				return res, 0, err
			}
			sys, err := newMachine(root, wl, machineConfig(wl, o.org), true, nil)
			if err != nil {
				return res, 0, err
			}
			setup += time.Since(t0).Seconds()
			m := startMeter()
			_, _, serr := stream(root, gen, sys, w.buf, 0)
			if serr == nil {
				drain(root, sys)
			}
			wall, cpu := m.stop()
			res.wall += wall
			res.cpu += cpu
			res.lat = append(res.lat, time.Since(t0).Seconds()*1e3)
			out, rerr := reportBytes(sys)
			if serr != nil {
				rerr = serr
			}
			key := fmt.Sprintf("machine-stream/seed%d/%s/%s", seed, p, o.name)
			b.gate.check(key, out, rerr, seed == 0)
			res.refs += sys.Refs()
			l1, l2 := misses(sys)
			res.l1 += l1
			res.l2 += l2
			root.end(sys.Refs(), 0)
		}
	}
	return res, setup, nil
}

// finish re-runs the default seed, untimed, when the run used another
// one, so every run is checked against the recorded digests.
func (w *machineStream) finish(b *bench) error {
	if b.seed == 0 {
		return nil
	}
	_, _, err := w.run(b, 0, false)
	return err
}
