package probe

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

// collect is a sink recording every delivered event.
type collect struct{ evs []Event }

func (c *collect) Event(ev Event) { c.evs = append(c.evs, ev) }

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.Emit(Event{Kind: EvL1Hit})
	p.AdvanceRef()
	p.AddSink(&collect{})
	p.Flush()
	if p.Enabled() {
		t.Error("nil probe reports enabled")
	}
	if p.Counts().Total() != 0 || p.Ref() != 0 {
		t.Error("nil probe has state")
	}
	if err := p.Close(); err != nil {
		t.Error(err)
	}
}

func TestEmitStampsAndCounts(t *testing.T) {
	p := New(8)
	sink := &collect{}
	p.AddSink(sink)
	p.AdvanceRef()
	p.Emit(Event{CPU: 0, Kind: EvL1Miss, Access: stats.KindRead})
	p.Emit(Event{CPU: 1, Kind: EvL2Hit, Access: stats.KindRead})
	p.AdvanceRef()
	p.Emit(Event{CPU: 0, Kind: EvL1Hit, Access: stats.KindWrite})
	p.Flush()
	if len(sink.evs) != 3 {
		t.Fatalf("delivered %d events, want 3", len(sink.evs))
	}
	for i, ev := range sink.evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if sink.evs[0].Ref != 1 || sink.evs[2].Ref != 2 {
		t.Errorf("refs = %d, %d; want 1, 2", sink.evs[0].Ref, sink.evs[2].Ref)
	}
	c := p.Counts()
	if c.Of(EvL1Miss) != 1 || c.Of(EvL2Hit) != 1 || c.Of(EvL1Hit) != 1 || c.Total() != 3 {
		t.Errorf("counts = %v", c.Map())
	}
}

func TestRingOverflowFlushesInOrder(t *testing.T) {
	p := New(4)
	sink := &collect{}
	p.AddSink(sink)
	// Interleave two CPUs well past the ring capacity.
	for i := 0; i < 100; i++ {
		p.Emit(Event{CPU: i % 2, Kind: EvBusRead})
	}
	p.Flush()
	if len(sink.evs) != 100 {
		t.Fatalf("delivered %d events, want 100", len(sink.evs))
	}
	for i, ev := range sink.evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: seq %d", i, ev.Seq)
		}
	}
}

func TestRing(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		if !r.push(Event{Seq: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(Event{}) {
		t.Error("push into full ring succeeded")
	}
	if r.len() != 4 {
		t.Errorf("len = %d", r.len())
	}
	out := r.drain(nil)
	if len(out) != 4 || out[0].Seq != 0 || out[3].Seq != 3 {
		t.Errorf("drain = %v", out)
	}
	if r.len() != 0 || !r.push(Event{}) {
		t.Error("ring not reusable after drain")
	}
}

func TestRingBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two capacity accepted")
		}
	}()
	newRing(3)
}

func TestWindows(t *testing.T) {
	w := NewWindows(10)
	var closed []WindowMetrics
	w.OnClose = func(m WindowMetrics) { closed = append(closed, m) }
	for ref := uint64(1); ref <= 25; ref++ {
		hit := ref%2 == 0
		k := EvL1Miss
		if hit {
			k = EvL1Hit
		}
		w.Event(Event{Ref: ref, Kind: k})
		if !hit {
			w.Event(Event{Ref: ref, Kind: EvL2Hit})
			if ref%5 == 0 {
				w.Event(Event{Ref: ref, Kind: EvSynSameSet})
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.Done()
	if len(ws) != 3 || len(closed) != 3 {
		t.Fatalf("windows = %d, closed = %d; want 3", len(ws), len(closed))
	}
	if ws[0].FirstRef != 1 || ws[0].LastRef != 10 || ws[1].FirstRef != 11 {
		t.Errorf("window bounds: %+v %+v", ws[0], ws[1])
	}
	if ws[0].L1Hits != 5 || ws[0].L1Misses != 5 || ws[0].L1Ratio() != 0.5 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[0].Synonyms != 1 || ws[0].SynonymRate() != 0.1 {
		t.Errorf("window 0 synonyms = %d rate %v", ws[0].Synonyms, ws[0].SynonymRate())
	}
	if ws[2].L1Hits+ws[2].L1Misses != 5 {
		t.Errorf("trailing partial window = %+v", ws[2])
	}
	// The partial window's bound is clamped to the last reference seen,
	// not the nominal window end, so per-reference rates stay honest.
	if ws[2].FirstRef != 21 || ws[2].LastRef != 25 {
		t.Errorf("trailing partial bounds = %d-%d, want 21-25", ws[2].FirstRef, ws[2].LastRef)
	}
	if ws[2].SynonymRate() != 0.2 { // 1 synonym over 5 refs, not over 10
		t.Errorf("trailing partial synonym rate = %v, want 0.2", ws[2].SynonymRate())
	}
}

func TestWindowsAsProbeSink(t *testing.T) {
	p := New(8)
	w := NewWindows(4)
	p.AddSink(w)
	for i := 0; i < 10; i++ {
		p.AdvanceRef()
		p.Emit(Event{Kind: EvL1Hit})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.Done()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	var hits uint64
	for _, m := range ws {
		hits += m.L1Hits
	}
	if hits != 10 {
		t.Errorf("hits across windows = %d", hits)
	}
}

func TestLogAndFilter(t *testing.T) {
	var buf bytes.Buffer
	filter, err := ParseFilter("synonym,bus-read")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(&buf, filter)
	l.Event(Event{Seq: 1, Kind: EvL1Hit, Access: stats.KindRead})
	l.Event(Event{Seq: 2, Kind: EvSynMove, VA: 0x40, PA: 0x80})
	l.Event(Event{Seq: 3, Kind: EvBusRead, PA: 0x100})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "l1-hit") {
		t.Error("filtered kind logged")
	}
	for _, want := range []string{"syn-move", "bus-read", "pa=0x80"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	if _, err := ParseFilter("bogus-kind"); err == nil {
		t.Error("unknown filter term accepted")
	}
	if f, err := ParseFilter(""); err != nil || f != nil {
		t.Error("empty filter should accept everything via nil predicate")
	}
}

func TestKindStringsAndCategories(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
		if k.Category() == "other" {
			t.Errorf("kind %s has no category", s)
		}
	}
	if NumKinds.String() == "" || Kind(200).Category() != "other" {
		t.Error("out-of-range kinds mishandled")
	}
}

// TestWindowsCloseApplied: the parking daemon's flush hook closes exactly
// the windows whose whole span the reference cursor has passed — the
// cycle-engine case where event emission trails the applied references and
// the just-completed window would otherwise be lost at a shutdown.
func TestWindowsCloseApplied(t *testing.T) {
	w := NewWindows(10)
	var closed []WindowMetrics
	w.OnClose = func(m WindowMetrics) { closed = append(closed, m) }

	// Events observed through ref 12, cursor already at 18: window 0
	// (1-10) is fully applied and must close with its preset bounds;
	// window 1 (11-20) is not and must stay open.
	for ref := uint64(1); ref <= 12; ref++ {
		w.Event(Event{Ref: ref, Kind: EvL1Hit})
	}
	w.CloseApplied(18)
	if len(closed) != 1 {
		t.Fatalf("closed %d windows, want 1", len(closed))
	}
	if closed[0].Seq != 0 || closed[0].FirstRef != 1 || closed[0].LastRef != 10 {
		t.Errorf("closed window = %+v, want seq 0 spanning 1-10", closed[0])
	}
	if closed[0].L1Hits != 10 {
		t.Errorf("closed window hits = %d, want 10", closed[0].L1Hits)
	}
	// Idempotent while nothing new completes.
	w.CloseApplied(18)
	if len(closed) != 1 {
		t.Fatalf("second CloseApplied closed more windows: %d", len(closed))
	}
	// Cursor past several window bounds: every fully-applied window closes,
	// in order, with tiling bounds (the lag case spans > one window).
	w.CloseApplied(41)
	if len(closed) != 4 {
		t.Fatalf("closed %d windows, want 4 (seqs 0-3)", len(closed))
	}
	for i, m := range closed {
		if m.Seq != uint64(i) || m.FirstRef != uint64(i)*10+1 || m.LastRef != uint64(i+1)*10 {
			t.Errorf("closed[%d] = %+v, want seq %d spanning %d-%d",
				i, m, i, i*10+1, (i+1)*10)
		}
	}
	// Events that straggle in afterwards fold into the open successor
	// window rather than resurrecting a closed one.
	w.Event(Event{Ref: 13, Kind: EvL1Miss})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	last := closed[len(closed)-1]
	if last.Seq != 4 || last.L1Misses != 1 {
		t.Errorf("trailing window = %+v, want seq 4 carrying the straggler", last)
	}
	// No events at all: nothing to close.
	w2 := NewWindows(10)
	w2.CloseApplied(100)
	if got := len(w2.Done()); got != 0 {
		t.Errorf("empty collector closed %d windows", got)
	}
}
