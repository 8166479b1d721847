// Package vrsim is the public API of a trace-driven simulator for the
// two-level virtual-real cache hierarchy of Wang, Baer and Levy (ISCA
// 1989): a small, fast, virtually-addressed first-level cache backed by a
// large physically-addressed second-level cache that enforces inclusion,
// resolves virtual-address synonyms through reverse-translation pointers,
// and shields the first level from irrelevant multiprocessor cache
// coherence traffic.
//
// # Building a machine
//
// A System is a shared-bus multiprocessor of identical two-level
// hierarchies:
//
//	sys, err := vrsim.New(vrsim.Config{
//		CPUs:         4,
//		Organization: vrsim.VR,
//		L1:           vrsim.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
//		L2:           vrsim.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
//	})
//
// Four organizations are available: VR (the paper's proposal), the two
// physically-addressed baselines it is evaluated against, RRInclusion and
// RRNoInclusion, and VRRLT, a V-R variant that resolves synonyms through a
// bounded reverse-lookup table instead of unbounded per-subentry
// v-pointers. Orthogonally, Config.L1WriteThrough selects the Section 2
// write-through first level, and Config.VictimEntries inserts a small
// victim cache between the levels of any organization.
//
// # Driving it
//
// Any stream of trace records drives the machine (System.Run); the
// tracegen-backed workloads reproduce the paper's three ATUM-like traces:
//
//	wl := vrsim.PopsWorkload()
//	err := vrsim.RunWorkload(sys, wl)
//	agg := sys.Aggregate() // h1, h2, per-kind hit ratios
//
// Per-CPU statistics (synonym resolutions, coherence messages reaching the
// first level, write-backs, inclusion invalidations, ...) are available
// through System.Stats.
//
// # Performance model
//
// The paper's access-time equation and its Figure 4-6 analyses live in the
// timemodel helpers re-exported here (AccessTime, Curve, Crossover).
package vrsim

import (
	"io"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/monitor"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Geometry describes a cache's shape: total size, block size and
// associativity, all powers of two.
type Geometry = cache.Geometry

// Organization selects the cache organization of every CPU in a System.
type Organization = system.Organization

// The organizations the paper compares.
const (
	// VR is the paper's proposal: virtually-addressed L1, physically
	// addressed L2 with inclusion, synonym resolution and shielding.
	VR = system.VR
	// RRInclusion is the physically-addressed baseline with inclusion.
	RRInclusion = system.RRInclusion
	// RRNoInclusion is the physically-addressed baseline whose levels
	// replace independently; every bus transaction probes the L1.
	RRNoInclusion = system.RRNoInclusion
	// VRRLT is the V-R organization with synonym resolution through a
	// bounded reverse-lookup synonym table (Config.RLTEntries) instead of
	// per-subentry v-pointers.
	VRRLT = system.VRRLT
)

// Config describes a machine; see system.Config for field documentation.
type Config = system.Config

// System is an assembled shared-bus multiprocessor.
type System = system.System

// New builds a machine.
func New(cfg Config) (*System, error) { return system.New(cfg) }

// Protocol selects the bus coherence protocol.
type Protocol = core.Protocol

// Coherence protocols: the paper's write-invalidate protocol (default) and
// a Firefly-style write-update alternative demonstrating the paper's
// remark that the organization works for other protocols too.
const (
	WriteInvalidate = core.WriteInvalidate
	WriteUpdate     = core.WriteUpdate
)

// AccessResult reports what one reference did (hit level, synonym
// resolution, physical address, data token).
type AccessResult = core.AccessResult

// Ref is one trace record.
type Ref = trace.Ref

// Address types used in trace records and results.
type (
	VAddr = addr.VAddr
	PAddr = addr.PAddr
)

// DMA is an I/O device on the bus (see System.NewDMA): it reads and writes
// memory by physical address through the ordinary coherence protocol,
// demonstrating the paper's point that a physically-addressed second level
// makes device traffic need no reverse translation.
type DMA = system.DMA

// Signal tracing: a Tracer attached through Config.Tracer observes every
// V-cache/R-cache interface signal of the paper's Table 4 as the
// controllers raise them.
type (
	Signal     = core.Signal
	Tracer     = core.Tracer
	TracerFunc = core.TracerFunc
)

// Trace record kinds.
const (
	IFetch    = trace.IFetch
	Read      = trace.Read
	Write     = trace.Write
	CtxSwitch = trace.CtxSwitch
)

// WorkloadConfig describes a synthetic multiprocessor workload.
type WorkloadConfig = tracegen.Config

// Workload generates the trace of a WorkloadConfig.
type Workload = tracegen.Generator

// NewWorkload builds a workload generator.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return tracegen.New(cfg) }

// The paper's three trace models (Table 5 characteristics).
var (
	PopsWorkload   = tracegen.PopsLike
	ThorWorkload   = tracegen.ThorLike
	AbaqusWorkload = tracegen.AbaqusLike
)

// RunWorkload wires a synthetic workload to a machine — mapping the shared
// segment into every process's address space, generating the trace, and
// running it to completion.
func RunWorkload(sys *System, cfg WorkloadConfig) error {
	if err := cfg.SetupSharedMappings(sys.MMU()); err != nil {
		return err
	}
	gen, err := tracegen.New(cfg)
	if err != nil {
		return err
	}
	return sys.Run(gen)
}

// Event tracing: a Probe attached through Config.Probe receives one typed
// event per paper mechanism exercised — cache hits and misses by level and
// reference kind, TLB activity and aborted lookups, synonym resolutions,
// write-buffer traffic, inclusion invalidations, coherence messages reaching
// (or shielded from) the first level, bus transactions, DMA, and context
// switches. A nil Probe in Config disables collection entirely; the hot
// paths then pay only a nil check.
type (
	// Probe collects events; attach sinks with AddSink and Close at the
	// end of a run.
	Probe = probe.Probe
	// MetricWindows folds the event stream into fixed-size windows.
	MetricWindows = probe.Windows
)

// NewProbe creates an enabled probe; ringCapacity 0 selects the default
// per-CPU buffer size.
func NewProbe(ringCapacity int) *Probe { return probe.New(ringCapacity) }

// NewMetricWindows creates a windowed-metrics collector with the given
// window length in references.
func NewMetricWindows(every uint64) *MetricWindows { return probe.NewWindows(every) }

// Cycle accounting: a CycleEngine attached through Config.Cycles measures
// per-CPU access times from the simulation itself — each reference charged
// its t1/t2/tm service time, TLB misses and context switches their
// penalties, and the bus arbitrated as a shared timed resource whose
// queueing delay is charged to the requester (see internal/cycles).
type (
	// CycleEngine is the machine-wide cycle accountant.
	CycleEngine = cycles.Engine
	// CycleParams are its latency inputs, in integer cycles.
	CycleParams = cycles.Params
)

// NewCycleEngine creates a cycle engine; pr may be nil (no timing events).
func NewCycleEngine(p CycleParams, pr *Probe) (*CycleEngine, error) { return cycles.New(p, pr) }

// ContentionCycleParams returns the paper's latency scaling (t1=1, t2=4,
// tm=20) plus a contended bus.
func ContentionCycleParams() CycleParams { return cycles.ContentionParams() }

// Auditor drives online auditing: attached through Config.Audit, it
// snapshots the whole machine every N references (and on demand) and
// re-verifies the structural invariants the paper's correctness argument
// rests on — inclusion, single first-level copy per physical block, pointer
// reciprocity, buffer-bit bijection, dirty-bit consistency, swapped-valid
// legality, coherence exclusivity, and translation agreement. A nil Auditor
// in Config disables auditing; the hot path then pays one branch.
type Auditor = audit.Auditor

// NewAuditor creates an auditor that audits every n references; n = 0
// audits on demand only (Auditor.Audit).
func NewAuditor(n uint64) *Auditor { return audit.New(n) }

// Latencies holds per-CPU latency histograms fed by the cycle engine
// (CycleEngine.SetLatencies), one set per measured kind.
type Latencies = monitor.Latencies

// LatAccess names the per-reference access-time distribution.
const LatAccess = monitor.LatAccess

// NewLatencies pre-sizes a latency collector for the given CPU count.
func NewLatencies(cpus int) *Latencies { return monitor.NewLatencies(cpus) }

// Telemetry: causal span tracing, post-mortem flight recording, and
// cycle attribution, all riding the probe event stream (attach any of them
// with Probe.AddSink). The tracer turns sampled references into nested
// cause-and-effect span trees; the recorder keeps a fixed ring of recent
// events and dumps a bundle on audit violations, latency tripwires, or
// demand; the attribution profiler splits every measured cycle by
// mechanism and reconciles with the cycle engine exactly.
type (
	// SpanTracer samples 1-in-N references into causal span trees.
	SpanTracer = telemetry.Tracer
	// SpanExporter consumes completed span trees.
	SpanExporter = telemetry.SpanExporter
	// FlightRecorder keeps recent events for post-mortem bundles.
	FlightRecorder = telemetry.Recorder
	// FlightRecorderConfig configures a FlightRecorder.
	FlightRecorderConfig = telemetry.RecorderConfig
	// FlightBundle is one parsed post-mortem capture.
	FlightBundle = telemetry.Bundle
	// AttributionProfiler splits measured cycles by mechanism.
	AttributionProfiler = telemetry.Attribution
	// AttributionConfig configures an AttributionProfiler.
	AttributionConfig = telemetry.AttrConfig
	// BuildInfo identifies the binary that produced a report or bundle.
	BuildInfo = telemetry.BuildInfo
)

// NewSpanTracer creates a span tracer sampling one reference in every
// (0 selects the 1-in-4096 default), exporting to the given exporters.
func NewSpanTracer(every uint64, exps ...SpanExporter) *SpanTracer {
	return telemetry.NewTracer(every, exps...)
}

// NewChromeSpanWriter creates a span exporter writing nested Chrome
// trace_event JSON (chrome://tracing, Perfetto) to w.
func NewChromeSpanWriter(w io.Writer) SpanExporter { return telemetry.NewChromeSpanWriter(w) }

// NewFlightRecorder creates an armed flight recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return telemetry.NewRecorder(cfg)
}

// ParseFlightBundle reads and strictly validates one bundle document.
func ParseFlightBundle(r io.Reader) (*FlightBundle, error) { return telemetry.ParseBundle(r) }

// NewAttributionProfiler creates a cycle-attribution profiler.
func NewAttributionProfiler(cfg AttributionConfig) *AttributionProfiler {
	return telemetry.NewAttribution(cfg)
}

// Build identifies this binary (module, version, go version, VCS revision).
func Build() BuildInfo { return telemetry.Build() }

// TimeParams are the inputs of the paper's access-time equation.
type TimeParams = timemodel.Params

// DefaultTimeParams returns the paper's latency scaling (t2 = 4·t1) around
// measured hit ratios.
func DefaultTimeParams(h1, h2 float64) TimeParams { return timemodel.DefaultParams(h1, h2) }

// AccessTime evaluates Tacc = h1·t1 + (1−h1)·h2·t2 + (1−h1−(1−h1)·h2)·tm.
func AccessTime(p TimeParams) float64 { return timemodel.AccessTime(p) }

// Crossover returns the R-R translation slow-down at which the V-R
// organization starts winning (Figure 6's headline analysis).
func Crossover(vr, rr TimeParams) float64 { return timemodel.Crossover(vr, rr) }

// CurvePoint is one point of a Figure 4-6 access-time series.
type CurvePoint = timemodel.CurvePoint

// Curve computes a Figure 4-6 series over R-R slow-downs in
// [0, maxSlowdown].
func Curve(vr, rr TimeParams, maxSlowdown float64, steps int) []CurvePoint {
	return timemodel.Curve(vr, rr, maxSlowdown, steps)
}
