package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/probe"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the exporter golden files under testdata/")

// goldenEvents covers every branch of the event exporter: each access
// class, durations and instants, every context-switch flush mode, events
// with and without a physical address, and a multi-digit CPU id whose
// process_name record must read "cpu11".
func goldenEvents() []probe.Event {
	return []probe.Event{
		{Seq: 1, Ref: 1, CPU: 0, Kind: probe.EvL1Miss, Access: stats.KindIFetch, VA: 0x1000, PA: 0x9000},
		{Seq: 2, Ref: 1, CPU: 0, Kind: probe.EvL2Miss, Access: stats.KindIFetch, VA: 0x1000, PA: 0x9000},
		{Seq: 3, Ref: 2, CPU: 0, Kind: probe.EvL1Hit, Access: stats.KindRead, VA: 0x1004, PA: 0x9004},
		{Seq: 4, Ref: 3, CPU: 11, Kind: probe.EvL1Miss, Access: stats.KindWrite, VA: 0x40, PA: 0x80},
		{Seq: 5, Ref: 3, CPU: 11, Kind: probe.EvL2Hit, Access: stats.KindWrite, VA: 0x40, PA: 0x80},
		{Seq: 6, Ref: 3, CPU: 11, Kind: probe.EvTLBMiss, VA: 0x40},
		{Seq: 7, Ref: 3, CPU: 11, Kind: probe.EvSynCross, VA: 0x40, PA: 0x80, Aux: 3},
		{Seq: 8, Ref: 4, CPU: 1, Kind: probe.EvCohInvalidate, PA: 0x80},
		{Seq: 9, Ref: 4, CPU: 1, Kind: probe.EvShielded, PA: 0x80},
		{Seq: 10, Ref: 4, CPU: 11, Kind: probe.EvWBEnqueue, PA: 0xa0},
		{Seq: 11, Ref: 5, CPU: 12, Kind: probe.EvBusReadMod, PA: 0xa0},
		{Seq: 12, Ref: 5, CPU: 12, Kind: probe.EvDMAWrite, PA: 0xa0, Aux: 64},
		{Seq: 13, Ref: 6, CPU: 0, Kind: probe.EvCtxSwitch, Aux: probe.CtxLazy},
		{Seq: 14, Ref: 7, CPU: 1, Kind: probe.EvCtxSwitch, Aux: probe.CtxEager},
		{Seq: 15, Ref: 8, CPU: 11, Kind: probe.EvCtxSwitch, Aux: probe.CtxNone},
		{Seq: 16, Ref: 9, CPU: 0, Kind: probe.EvTimeBusWait, Aux: 7},
		{Seq: 17, Ref: 9, CPU: 0, Kind: probe.EvRLTEvict},
	}
}

// goldenSpans returns two span trees: a nested one on a multi-digit CPU
// with zero-width children and a mechanism-less node, and a single
// zero-width root without addresses.
func goldenSpans() []*Span {
	return []*Span{
		{
			Name: "ref", CPU: 11, Ref: 42, Start: 100, End: 127, VA: 0x7fff0040, PA: 0x12340,
			Children: []*Span{
				{Name: "l1-miss", Mechanism: "access", CPU: 11, Ref: 42, Start: 100, End: 101, VA: 0x7fff0040},
				{Name: "bus-wait", Mechanism: "bus", CPU: 11, Ref: 42, Start: 101, End: 107,
					Children: []*Span{{Name: "syn-cross", Mechanism: "synonym", CPU: 11, Ref: 42, Start: 107, End: 107, PA: 0x12340}}},
				{Name: "memory", Mechanism: "memory", CPU: 11, Ref: 42, Start: 107, End: 127, PA: 0x12340},
			},
		},
		{Name: "ctx-switch", Mechanism: "time", CPU: 0, Ref: 43, Start: 130, End: 130},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file (rerun with -update only for an intended format change)\n got:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestExporterBytes pins every byte the three JSON trace exporters write for
// fixed inputs — record key order, separators, header and footer, number
// and string formatting — so a refactor of their shared plumbing cannot
// change a trace file unnoticed.
func TestExporterBytes(t *testing.T) {
	t.Run("chrome-events", func(t *testing.T) {
		var buf bytes.Buffer
		c := NewChromeTrace(&buf)
		for _, ev := range goldenEvents() {
			c.Event(ev)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.Events() != len(goldenEvents()) {
			t.Errorf("Events() = %d, want %d", c.Events(), len(goldenEvents()))
		}
		checkGolden(t, "chrome_events.golden.json", buf.Bytes())
	})
	t.Run("chrome-spans", func(t *testing.T) {
		var buf bytes.Buffer
		c := NewChromeSpanWriter(&buf)
		for _, sp := range goldenSpans() {
			if err := c.ExportSpan(sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.Events() != 6 {
			t.Errorf("Events() = %d, want 6", c.Events())
		}
		checkGolden(t, "chrome_spans.golden.json", buf.Bytes())
	})
	t.Run("otlp", func(t *testing.T) {
		var buf bytes.Buffer
		o := NewOTLPWriterService(&buf, "vrsimd \"lab\" <a&b>\n")
		spans := goldenSpans()
		if err := o.ExportSpan(spans[0]); err != nil {
			t.Fatal(err)
		}
		if err := o.ExportSpanTrace("0123456789abcdef0123456789abcdef", spans[1]); err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		if o.Spans() != 6 {
			t.Errorf("Spans() = %d, want 6", o.Spans())
		}
		checkGolden(t, "otlp.golden.json", buf.Bytes())
	})
	t.Run("otlp-empty", func(t *testing.T) {
		var buf bytes.Buffer
		if err := NewOTLPWriter(&buf).Close(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "otlp_empty.golden.json", buf.Bytes())
	})
}
