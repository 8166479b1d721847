package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/probe"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// decompRecords is the length of the in-memory pops trace the traced run
// replays to isolate single layers; decompRepeats replays of each machine
// give a median.
const (
	decompRecords = 200_000
	decompRepeats = 3
	probeWindow   = 20_000 // the job manager's default progress window
)

// decomposition holds the per-layer figures that need extra replays of an
// in-memory trace, so that trace generation is excluded.
type decomposition struct {
	orgNs        map[string]float64 // untimed replay, ns/ref
	cyclesNs     float64            // timed minus untimed V-R replay, ns/ref
	probeNs      float64            // V-R replay with a windows sink minus without, ns/ref
	eventsPerRef float64
	sweepRate    map[int]float64 // sweep.Run refs/s by N
	sweepEff     map[int]float64
}

// sweepSizes are the sweep widths the decomposition times.
var sweepSizes = []int{1, 6, 18}

// sweepConfigs are the N machines of a sweep, cycling organizations and
// paper cache sizes as the repository's sweep micro-benchmark does; the
// first six are the N=6 set.
func sweepConfigs(n int, wl tracegen.Config) []system.Config {
	pairs := [][2]uint64{
		{4 << 10, 64 << 10}, {8 << 10, 128 << 10}, {16 << 10, 256 << 10},
		{4 << 10, 128 << 10}, {8 << 10, 256 << 10}, {16 << 10, 512 << 10},
	}
	three := []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion}
	cfgs := make([]system.Config, n)
	for i := range cfgs {
		p := pairs[(i/len(three))%len(pairs)]
		cfgs[i] = machineConfig(wl, three[i%len(three)])
		cfgs[i].L1 = cache.Geometry{Size: p[0], Block: 16, Assoc: 1}
		cfgs[i].L2 = cache.Geometry{Size: p[1], Block: 32, Assoc: 1}
	}
	return cfgs
}

// decompose runs the traced run's isolating replays, each inside spans.
func decompose(b *bench) (decomposition, error) {
	d := decomposition{orgNs: map[string]float64{}, sweepRate: map[int]float64{}, sweepEff: map[int]float64{}}
	root := b.tr.root(0, "bench", "decomposition")
	defer root.end(0, 0)
	wl, err := workloadConfig("pops", 1, b.seed)
	if err != nil {
		return d, err
	}
	mem, err := generate(root, wl, decompRecords)
	if err != nil {
		return d, err
	}

	// replay builds a fresh machine and times an untimed, timed or probed
	// replay of mem through it, in ns per reference.
	replay := func(cfg system.Config, timed bool, pr *probe.Probe) (*system.System, float64, error) {
		sys, err := newMachine(root, wl, cfg, timed, pr)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := applyAll(root, sys, mem); err != nil {
			return nil, 0, err
		}
		drain(root, sys)
		return sys, float64(time.Since(t0).Nanoseconds()) / float64(sys.Refs()), nil
	}
	med := func(cfg system.Config, timed, probed bool) (*system.System, float64, error) {
		var xs []float64
		var sys *system.System
		for r := 0; r < decompRepeats; r++ {
			var pr *probe.Probe
			if probed {
				pr = probe.New(0)
				pr.AddSink(probe.NewWindows(probeWindow))
			}
			s, ns, err := replay(cfg, timed, pr)
			if err != nil {
				return nil, 0, err
			}
			if pr != nil {
				if err := pr.Close(); err != nil {
					return nil, 0, err
				}
				d.eventsPerRef = float64(pr.Counts().Total()) / float64(s.Refs())
			}
			sys = s
			xs = append(xs, ns)
		}
		return sys, summarize(xs).Median, nil
	}

	var vr *system.System
	for _, o := range orgs {
		sys, ns, err := med(machineConfig(wl, o.org), false, false)
		if err != nil {
			return d, fmt.Errorf("%s replay: %w", o.name, err)
		}
		d.orgNs[o.name] = ns
		if o.org == system.VR {
			vr = sys
		}
	}
	_, timedNs, err := med(machineConfig(wl, system.VR), true, false)
	if err != nil {
		return d, fmt.Errorf("timed replay: %w", err)
	}
	d.cyclesNs = timedNs - d.orgNs["vr"]
	_, probedNs, err := med(machineConfig(wl, system.VR), false, true)
	if err != nil {
		return d, fmt.Errorf("probed replay: %w", err)
	}
	d.probeNs = probedNs - d.orgNs["vr"]

	// One audit and one checkpoint round trip of the replayed machine, so
	// those layers have figures on every workload.
	auditOnce(b, root, vr, "decomposition", uint64(len(mem)))
	if _, err := roundTrip(root, vr, wl, machineConfig(wl, system.VR), "perfbench decomposition", uint64(len(mem))); err != nil {
		return d, fmt.Errorf("checkpoint round trip: %w", err)
	}

	// Sweep broadcast: each configuration alone, then N at once.
	cfgs := sweepConfigs(sweepSizes[len(sweepSizes)-1], wl)
	solo := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		sys, ns, err := replay(cfg, false, nil)
		if err != nil {
			return d, fmt.Errorf("solo replay %d: %w", i, err)
		}
		solo[i] = ns * float64(sys.Refs()) / 1e9
	}
	for _, n := range sweepSizes {
		systems := make([]*system.System, n)
		for i := range systems {
			if systems[i], err = newMachine(root, wl, cfgs[i], false, nil); err != nil {
				return d, err
			}
		}
		sp := root.span("sweep", "sweep.Run")
		t0 := time.Now()
		err := sweep.Run(trace.NewSliceReader(mem), systems, sweep.Options{})
		wall := time.Since(t0).Seconds()
		var refs uint64
		for _, sys := range systems {
			refs += sys.Refs()
		}
		sp.end(refs, 0)
		if err != nil {
			return d, fmt.Errorf("sweep N=%d: %w", n, err)
		}
		d.sweepRate[n] = float64(refs) / wall
		var sum float64
		for _, s := range solo[:n] {
			sum += s
		}
		d.sweepEff[n] = sum / (wall * float64(min(n, runtime.NumCPU())))
	}
	return d, nil
}

// generate reads up to n records of wl into memory.
func generate(sc scope, wl tracegen.Config, n int) ([]trace.Ref, error) {
	gen, err := newGenerator(sc, wl)
	if err != nil {
		return nil, err
	}
	mem := make([]trace.Ref, 0, n)
	buf := make([]trace.Ref, batchRecords)
	for len(mem) < n {
		want := buf[:min(len(buf), n-len(mem))]
		sp := sc.span("tracegen", "Generator.ReadBatch")
		k, err := gen.ReadBatch(want)
		sp.end(uint64(k), 0)
		mem = append(mem, want[:k]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return mem, nil
}

// applyAll replays mem through sys a batch at a time.
func applyAll(sc scope, sys *system.System, mem []trace.Ref) error {
	for i := 0; i < len(mem); i += batchRecords {
		j := min(i+batchRecords, len(mem))
		sp := sc.span("system", "System.ApplyBatch")
		err := sys.ApplyBatch(mem[i:j])
		sp.end(uint64(j-i), 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// selfLayers are the layers whose self time per traced pass is reported.
var selfLayers = []string{"tracegen", "system", "audit", "checkpoint", "experiments", "jobs", "tsdb"}

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them.
func perLayerUnits() [][2]string {
	u := [][2]string{
		{"tracegen.ns_per_ref", "ns"}, {"tracegen.share", "ratio"},
	}
	for _, o := range orgs {
		u = append(u, [2]string{"system." + o.name + ".ns_per_ref", "ns"})
	}
	u = append(u,
		[2]string{"system.new_ms", "ms"}, [2]string{"system.refs", "count"},
		[2]string{"system.l1_misses", "count"}, [2]string{"system.l2_misses", "count"},
		[2]string{"cycles.ns_per_ref", "ns"},
		[2]string{"probe.ns_per_ref", "ns"}, [2]string{"probe.events_per_ref", "ratio"},
		[2]string{"audit.snapshot_ms", "ms"}, [2]string{"audit.check_ms", "ms"}, [2]string{"audit.audits", "count"},
		[2]string{"checkpoint.capture_ms", "ms"}, [2]string{"checkpoint.encode_ms", "ms"},
		[2]string{"checkpoint.decode_ms", "ms"}, [2]string{"checkpoint.restore_ms", "ms"},
		[2]string{"checkpoint.bytes", "bytes"},
	)
	for _, n := range sweepSizes {
		u = append(u, [2]string{fmt.Sprintf("sweep.n%d.refs_per_s", n), "1/s"})
	}
	for _, n := range sweepSizes[1:] {
		u = append(u, [2]string{fmt.Sprintf("sweep.n%d.efficiency", n), "ratio"})
	}
	for _, e := range experiments.All() {
		u = append(u, [2]string{"experiments." + e.ID + ".s", "s"})
	}
	u = append(u,
		[2]string{"jobs.submit_ms", "ms"}, [2]string{"jobs.queue_ms", "ms"}, [2]string{"jobs.run_ms", "ms"},
		[2]string{"jobs.report_ms", "ms"}, [2]string{"jobs.failed", "count"},
		[2]string{"tsdb.query_ms", "ms"},
	)
	for _, l := range selfLayers {
		u = append(u, [2]string{l + ".self_s", "s"})
	}
	u = append(u,
		[2]string{"trace.wall_untraced_s", "s"}, [2]string{"trace.wall_traced_s", "s"},
		[2]string{"trace.overhead_share", "ratio"}, [2]string{"trace.self_share", "ratio"},
	)
	return u
}

// perLayer derives the per-layer metrics from the traced run's spans, the
// decomposition and the figures the workload measured itself.
func (b *bench) perLayer(d decomposition) (map[string]metric, error) {
	spans := b.tr.done()
	if err := writeSpans(filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed)), spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	// Only service-jobs runs jobs; elsewhere the job layer did no work.
	v := map[string]float64{"jobs.queue_ms": 0, "jobs.run_ms": 0, "jobs.failed": 0}
	for k, x := range b.layer {
		v[k] = x
	}

	// Mean duration (ms) and totals of every span name, over both phases.
	type agg struct {
		n          int
		sec        float64
		refs, byts uint64
	}
	byName := map[string]*agg{}
	layerSelf := map[string]float64{}
	var selfSum float64
	for _, s := range spans {
		a := byName[s.Layer+"/"+s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Layer+"/"+s.Name] = a
		}
		a.n++
		a.sec += s.seconds()
		a.refs += s.Refs
		a.byts += s.Bytes
		if s.Phase == "workload" {
			layerSelf[s.Layer] += self[s.ID]
			selfSum += self[s.ID]
		}
	}
	meanMs := func(key string) float64 {
		if a := byName[key]; a != nil && a.n > 0 {
			return a.sec / float64(a.n) * 1e3
		}
		return 0
	}
	count := func(key string) float64 {
		if a := byName[key]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	passes := float64(len(b.tracedP))

	if a := byName["tracegen/Generator.ReadBatch"]; a != nil && a.refs > 0 {
		v["tracegen.ns_per_ref"] = a.sec * 1e9 / float64(a.refs)
	}
	if selfSum > 0 {
		v["tracegen.share"] = layerSelf["tracegen"] / selfSum
	}
	for name, ns := range d.orgNs {
		v["system."+name+".ns_per_ref"] = ns
	}
	v["system.new_ms"] = meanMs("system/system.New")
	var refs, l1, l2 []float64
	for _, p := range append(append([]passResult(nil), b.untraced...), b.tracedP...) {
		refs = append(refs, float64(p.refs))
		l1 = append(l1, float64(p.l1))
		l2 = append(l2, float64(p.l2))
	}
	v["system.refs"] = summarize(refs).Median
	v["system.l1_misses"] = summarize(l1).Median
	v["system.l2_misses"] = summarize(l2).Median
	v["cycles.ns_per_ref"] = d.cyclesNs
	v["probe.ns_per_ref"] = d.probeNs
	v["probe.events_per_ref"] = d.eventsPerRef
	v["audit.snapshot_ms"] = meanMs("audit/System.AuditSnapshot")
	v["audit.check_ms"] = meanMs("audit/Snapshot.Check")
	var audits float64
	for _, s := range spans {
		if s.Phase == "workload" && s.Name == "System.AuditSnapshot" {
			audits++
		}
	}
	v["audit.audits"] = audits / passes
	v["checkpoint.capture_ms"] = meanMs("checkpoint/checkpoint.Capture")
	v["checkpoint.encode_ms"] = meanMs("checkpoint/Checkpoint.Encode")
	v["checkpoint.decode_ms"] = meanMs("checkpoint/checkpoint.Decode")
	v["checkpoint.restore_ms"] = meanMs("checkpoint/checkpoint.Restore")
	if n := count("checkpoint/Checkpoint.Encode"); n > 0 {
		v["checkpoint.bytes"] = float64(byName["checkpoint/Checkpoint.Encode"].byts) / n
	}
	for n, r := range d.sweepRate {
		v[fmt.Sprintf("sweep.n%d.refs_per_s", n)] = r
	}
	for n, e := range d.sweepEff {
		if n > 1 {
			v[fmt.Sprintf("sweep.n%d.efficiency", n)] = e
		}
	}
	for _, e := range experiments.All() {
		v["experiments."+e.ID+".s"] = meanMs("experiments/"+e.ID) / 1e3
	}
	v["jobs.submit_ms"] = meanMs("jobs/client.Submit")
	v["jobs.report_ms"] = meanMs("jobs/client.Report")
	v["tsdb.query_ms"] = meanMs("tsdb/client.Timeseries")
	for _, l := range selfLayers {
		v[l+".self_s"] = layerSelf[l] / passes
	}

	// Tracing overhead and the self-time sanity check: the workload's
	// self times cannot exceed the traced passes' wall time on every lane.
	var wu, wt []float64
	var tracedElapsed float64
	for _, p := range b.untraced {
		wu = append(wu, p.wall)
	}
	for _, p := range b.tracedP {
		wt = append(wt, p.wall)
		tracedElapsed += p.elapsed
	}
	v["trace.wall_untraced_s"] = summarize(wu).Median
	v["trace.wall_traced_s"] = summarize(wt).Median
	v["trace.overhead_share"] = v["trace.wall_traced_s"]/v["trace.wall_untraced_s"] - 1
	v["trace.self_share"] = selfSum / (tracedElapsed * float64(b.lanes))
	if v["trace.self_share"] > 1 {
		b.gate.fail("traced run: per-layer self times sum to %.3fs, more than %.3fs of traced wall time on %d lane(s)",
			selfSum, tracedElapsed*float64(b.lanes), b.lanes)
	}

	m := map[string]metric{}
	var missing []string
	for _, nu := range perLayerUnits() {
		x, ok := v[nu[0]]
		if !ok {
			missing = append(missing, nu[0])
		}
		m[nu[0]] = metric{Value: x, Unit: nu[1]}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("per-layer metrics not computed: %v", missing)
	}
	for _, name := range measuredOn(b.name) {
		if m[name].Value == 0 {
			b.gate.fail("traced run: %s measured no work on %s", name, b.name)
		}
	}
	return m, nil
}

// measuredOn lists the per-layer metrics that must be non-zero on a
// workload: those of the layers it exercises itself. Elsewhere these
// layers do no work and read zero.
func measuredOn(workload string) []string {
	switch workload {
	case "paper-tables":
		var names []string
		for _, e := range experiments.All() {
			names = append(names, "experiments."+e.ID+".s")
		}
		return append(names, "experiments.self_s")
	case "machine-stream":
		return []string{"tracegen.share", "tracegen.self_s", "system.self_s"}
	case "checked-run":
		return []string{"tracegen.share", "audit.audits", "audit.self_s", "checkpoint.self_s"}
	case "service-jobs":
		return []string{"jobs.submit_ms", "jobs.run_ms", "jobs.report_ms", "jobs.self_s", "tsdb.query_ms", "tsdb.self_s"}
	}
	return nil
}
