// Package telemetry is the simulator's causal-observability layer, built on
// the probe event stream (internal/probe) and the cycle engine's timing
// charges (internal/cycles). It answers the question the aggregate counters
// cannot: not just *that* two configurations differ, but *why* — which
// mechanism each cycle of measured Tacc went to, which pages and sets are
// the heavy hitters, and what the machine was doing in the moments before a
// failure.
//
// Four tools live here, all attachable as probe Sinks:
//
//   - ChromeTrace: the raw event stream as Chrome trace_event JSON, one
//     process per CPU and one lane per event category.
//   - Tracer: sampled causal span trees, one per 1-in-N memory reference,
//     assembled from the event stream with cycle boundaries reconstructed
//     from the timing charges. Exported as nested Chrome trace_event spans
//     and as an OTLP-style JSON file.
//   - Recorder: a flight recorder — fixed-size per-CPU rings of the most
//     recent probe events plus the last audit snapshot, dumped to a
//     post-mortem bundle on an audit violation, on a latency sample above a
//     configurable threshold, or on demand over HTTP.
//   - Attribution: a cycle-attribution profiler — a per-mechanism "blame"
//     breakdown of measured Tacc that reconciles exactly (to the cycle)
//     with the engine's clocks, plus space-saving top-K heavy hitters
//     (pages, cache sets, CPUs).
//
// The three JSON trace writers (ChromeTrace, ChromeSpanWriter, OTLPWriter)
// share one emitter, jsonStream.
//
// Everything follows the repo's hot-path discipline: the per-event work of
// an armed recorder or an unsampled reference is a few compares and adds,
// with no allocation.
package telemetry

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the binary that produced a report or post-mortem
// bundle, so artifacts are self-identifying when they outlive the build.
type BuildInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
}

// Build returns the running binary's identity from the embedded Go build
// information. Binaries built from a working tree report version "(devel)".
func Build() BuildInfo {
	bi := BuildInfo{Module: "repro", Version: "(devel)", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Path != "" {
		bi.Module = info.Main.Path
	}
	if info.Main.Version != "" {
		bi.Version = info.Main.Version
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
}

// String renders the build identity as a single report-header line.
func (b BuildInfo) String() string {
	s := fmt.Sprintf("%s %s %s", b.Module, b.Version, b.GoVersion)
	if b.Revision != "" {
		r := b.Revision
		if len(r) > 12 {
			r = r[:12]
		}
		s += " (" + r + ")"
	}
	return s
}
