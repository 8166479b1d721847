package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
)

// paperCountsJSON holds, per experiment, the references, first-level
// misses and second-level misses its machines simulate at paperScale.
// Experiments build their machines internally, so these counts cannot be
// taken from outside; they were measured once with a counter in
// System.Apply and hold as long as the experiment output is unchanged,
// which the digest gate checks on every pass.
//
//go:embed paper_counts.json
var paperCountsJSON []byte

type paperCounts struct {
	Scale       float64              `json:"scale"`
	Experiments map[string][3]uint64 `json:"experiments"`
}

// paperScale is the reduced trace scale of every experiment; one pass of
// all of them takes about two seconds on two cores.
const paperScale = 0.025

// paperTables runs every experiment of experiments.All() once per pass in
// a pool of NumCPU workers that take experiments in registry order, as
// `experiments -run all -scale 0.025` does.
type paperTables struct {
	exps   []experiments.Experiment
	counts paperCounts
}

func (w *paperTables) start(b *bench) error {
	w.exps = experiments.All()
	if err := json.Unmarshal(paperCountsJSON, &w.counts); err != nil {
		return fmt.Errorf("paper counts: %w", err)
	}
	if w.counts.Scale != paperScale {
		return fmt.Errorf("paper counts are for scale %g, not %g", w.counts.Scale, paperScale)
	}
	for _, e := range w.exps {
		if _, ok := w.counts.Experiments[e.ID]; !ok {
			return fmt.Errorf("paper counts: no entry for experiment %q", e.ID)
		}
	}
	b.lanes = runtime.NumCPU()
	return nil
}

func (w *paperTables) pass(b *bench, i int) (passResult, error) {
	var res passResult
	setup, err := proxySetup(b)
	if err != nil {
		return res, err
	}
	b.setups = append(b.setups, setup)

	outs := make([]bytes.Buffer, len(w.exps))
	errs := make([]error, len(w.exps))
	lat := make([]float64, len(w.exps))
	next := make(chan int)
	var wg sync.WaitGroup
	m := startMeter()
	t0 := time.Now()
	for lane := 1; lane <= b.lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := range next {
				e := w.exps[k]
				sp := b.tr.root(lane, "experiments", e.ID)
				errs[k] = e.Run(&outs[k], paperScale)
				sp.end(w.counts.Experiments[e.ID][0], uint64(outs[k].Len()))
				lat[k] = time.Since(t0).Seconds() * 1e3
			}
		}(lane)
	}
	for k := range w.exps {
		next <- k
	}
	close(next)
	wg.Wait()
	res.wall, res.cpu = m.stop()
	res.lat = lat
	for k, e := range w.exps {
		b.gate.check("paper-tables/"+e.ID, outs[k].Bytes(), errs[k], true)
		c := w.counts.Experiments[e.ID]
		res.refs += c[0]
		res.l1 += c[1]
		res.l2 += c[2]
	}
	return res, nil
}

// proxySetup builds, for every preset and organization, the machine and
// generator an experiment builds before its first reference. The
// experiments' own set-up happens inside experiments.Run, out of reach,
// so this stands in for it.
func proxySetup(b *bench) (float64, error) {
	root := b.tr.root(0, "bench", "setup")
	defer root.end(0, 0)
	t0 := time.Now()
	for _, p := range presetNames {
		wl, err := workloadConfig(p, paperScale, b.seed)
		if err != nil {
			return 0, err
		}
		if _, err := newGenerator(root, wl); err != nil {
			return 0, err
		}
		for _, o := range orgs {
			if _, err := newMachine(root, wl, machineConfig(wl, o.org), false, nil); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}

func (w *paperTables) finish(b *bench) error { return nil }
