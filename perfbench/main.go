// Command perfbench is the repository's benchmark: it measures what the
// simulator costs to run on the host — wall time, CPU time, throughput,
// memory and job latency — on four workloads, checks every output against
// recorded digests, and in a separate traced run breaks the cost down by
// layer.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	sh perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// passResult is what one pass of a workload measured.
type passResult struct {
	wall, cpu float64   // seconds, measured phase only
	elapsed   float64   // seconds, the whole pass including set-up
	rss       float64   // peak resident set during the pass, MiB
	refs      uint64    // references simulated, summed over machines
	l1, l2    uint64    // first- and second-level misses
	lat       []float64 // per-unit latencies, ms
}

// workload is one named input set of the benchmark.
type workload interface {
	// start does run-level set-up and records its set-up samples.
	start(b *bench) error
	// pass runs one measured unit of the workload.
	pass(b *bench, i int) (passResult, error)
	// finish verifies outputs that need the whole run and tears down.
	finish(b *bench) error
}

var workloads = map[string]func() workload{
	"paper-tables":   func() workload { return &paperTables{} },
	"machine-stream": func() workload { return &machineStream{} },
	"checked-run":    func() workload { return &checkedRun{} },
	"service-jobs":   func() workload { return &serviceJobs{} },
}

// bench holds one run's settings and measurements.
type bench struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	state   string // scratch directory of this run, removed at exit
	out     string // directory for the spans and results it keeps
	tr      *tracer
	gate    *gate
	lanes   int        // goroutines that run workload calls concurrently
	steal   float64    // share of CPU time the host stole during the passes
	calib   [2]float64 // calibration loop before and after the passes, ms

	setups   []float64 // set-up samples, seconds
	untraced []passResult
	tracedP  []passResult
	layer    map[string]float64 // per-layer values the workload measures itself
}

// minPasses keeps a median meaningful when one pass outlasts --seconds.
const minPasses = 3

func main() {
	name := flag.String("workload", "", "paper-tables, machine-stream, checked-run or service-jobs")
	seed := flag.Int64("seed", 0, "workload seed; 0 reproduces the recorded digests")
	seconds := flag.Float64("seconds", 20, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	state := flag.String("state", ".bench_build/perfbench-state", "directory for state, spans and results")
	record := flag.String("record", "", "write the run's digests merged into this recorded.json")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag, *state, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceFlag int, state, record string) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive")
	}
	g, err := newGate(record != "")
	if err != nil {
		return err
	}
	dir := filepath.Join(state, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{
		name: name, seed: seed, seconds: seconds, traced: traceFlag == 1,
		state: dir, out: state, gate: g, lanes: 1, layer: map[string]float64{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	w := mk()
	if err := w.start(b); err != nil {
		return err
	}
	b.calib[0] = calibrate()
	measured := time.Now()
	steal0, total0 := cpuTicks()
	for i := 0; ; i++ {
		elapsed := time.Since(measured).Seconds()
		need := minPasses
		if b.traced {
			need = 2 * minPasses
		}
		if i >= need && elapsed >= seconds {
			break
		}
		// Tracing alternates by pass so that the traced and untraced
		// figures of one run share its host conditions.
		on := b.traced && i%2 == 1
		b.tr.setPass(i, on)
		resetPeakRSS()
		t0 := time.Now()
		res, err := w.pass(b, i)
		if err != nil {
			return err
		}
		res.elapsed = time.Since(t0).Seconds()
		res.rss = peakRSSMB()
		if on {
			b.tracedP = append(b.tracedP, res)
		} else {
			b.untraced = append(b.untraced, res)
		}
	}
	b.tr.setPass(-1, false)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		b.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	b.calib[1] = calibrate()
	var decomp decomposition
	if b.traced {
		b.tr.setPhase("decomposition")
		if decomp, err = decompose(b); err != nil {
			return err
		}
		b.tr.setPass(-1, false)
	}
	if err := w.finish(b); err != nil {
		return err
	}

	var metrics map[string]metric
	var sums map[string]summary
	if b.traced {
		metrics, err = b.perLayer(decomp)
	} else {
		metrics, sums = b.endToEnd()
	}
	if err != nil {
		return err
	}
	if record != "" {
		if err := g.writeRecorded(record); err != nil {
			return err
		}
	}
	return b.print(metrics, sums)
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics from the untraced passes:
// each is the median over passes, latencies are pooled over the run.
func (b *bench) endToEnd() (map[string]metric, map[string]summary) {
	var wall, cpu, rate, rss, lat []float64
	for _, p := range b.untraced {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		rss = append(rss, p.rss)
		rate = append(rate, float64(p.refs)/p.wall)
		lat = append(lat, p.lat...)
	}
	sums := map[string]summary{
		"setup_s":        summarize(b.setups),
		"wall_s":         summarize(wall),
		"cpu_s":          summarize(cpu),
		"refs_per_s":     summarize(rate),
		"peak_rss_mb":    summarize(rss),
		"job_latency_ms": summarize(lat),
	}
	m := map[string]metric{
		"setup_s":            {sums["setup_s"].Median, "s"},
		"wall_s":             {sums["wall_s"].Median, "s"},
		"cpu_s":              {sums["cpu_s"].Median, "s"},
		"refs_per_s":         {sums["refs_per_s"].Median, "1/s"},
		"peak_rss_mb":        {sums["peak_rss_mb"].Median, "MiB"},
		"job_latency_p50_ms": {percentile(lat, 50), "ms"},
		"job_latency_p90_ms": {percentile(lat, 90), "ms"},
	}
	return m, sums
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostResult is the host record written beside every result.
type hostResult struct {
	Host     host               `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Passes   int                `json:"passes"`
	Samples  map[string]summary `json:"samples,omitempty"`
	Result   result             `json:"result"`
	Problems []string           `json:"problems,omitempty"`
}

func (b *bench) print(metrics map[string]metric, sums map[string]summary) error {
	attempted, failed := b.gate.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	h := hostRecord()
	h.StealShare, h.CalibMs = b.steal, b.calib
	hr := hostResult{
		Host: h, Workload: b.name, Seed: b.seed, Traced: b.traced,
		Passes: len(b.untraced) + len(b.tracedP), Samples: sums, Result: res,
		Problems: b.gate.problems,
	}
	hdr, err := json.Marshal(hr.Host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s workload=%s seed=%d trace=%v passes=%d\n", hdr, b.name, b.seed, b.traced, hr.Passes)
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := sums[k]
		fmt.Printf("sample %-16s median %.6g  q1 %.6g  q3 %.6g  spread %.3f  n %d\n", k, s.Median, s.Q1, s.Q3, s.spread(), s.N)
	}
	if b.seed != 0 {
		for _, line := range b.gate.digestLines() {
			fmt.Println(line)
		}
	}
	for _, p := range b.gate.problems {
		fmt.Println("FAILED", p)
	}
	out := filepath.Join(b.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", b.name, b.seed, boolInt(b.traced)))
	data, err := json.MarshalIndent(hr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
