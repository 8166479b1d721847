package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// windowSnapshot captures everything a probe pass reads from a system
// (scalar counters only — interval trackers are pointers whose addresses
// would always differ).
func windowSnapshot(sys *system.System) string {
	s := fmt.Sprintf("refs=%d agg=%+v coh=%v", sys.Refs(), sys.Aggregate(), sys.CoherenceMessages())
	for i := 0; i < sys.CPUs(); i++ {
		st := sys.Stats(i)
		s += fmt.Sprintf(" cpu%d{l1=%+v l2=%+v tlb=%+v wb=%d swapped=%d eager=%d incl=%d stalls=%d ctx=%d syn=%v coh=%d}",
			i, st.L1, st.L2, st.TLB, st.WriteBacks, st.SwappedWriteBacks,
			st.EagerFlushWriteBacks, st.InclusionInvals, st.BufferStalls,
			st.CtxSwitches, st.Synonyms, st.Coherence.Total())
	}
	return s
}

// skipTranslating is the solo reference oracle for RunWindow's skip phase:
// it discards n memory references from r while still walking every
// reference through sys's MMU. Demand paging assigns frames in
// first-touch order, so translating the skipped prefix gives the shard the
// exact page tables the sequential run had at this point — frame layout,
// and with it physical cache indexing, does not diverge. Costs a map
// lookup per reference instead of a full simulation step.
func skipTranslating(sys *system.System, r trace.Reader, n uint64) (uint64, error) {
	mmu := sys.MMU()
	buf := make([]trace.Ref, 4096)
	var done uint64
	for done < n {
		// Never request more records than references still owed: a batch
		// can then only reach the nth reference as its final record, so the
		// reader is left positioned exactly where a record-at-a-time skip
		// would leave it.
		want := n - done
		if want > uint64(len(buf)) {
			want = uint64(len(buf))
		}
		got, err := trace.FillBatch(r, buf[:want])
		for _, ref := range buf[:got] {
			if ref.Kind == trace.CtxSwitch {
				continue
			}
			mmu.Translate(ref.PID, ref.Addr)
			done++
		}
		if errors.Is(err, io.EOF) {
			return done, nil
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// TestRunWindowMatchesPerSystem proves the shared-batch window run produces,
// for every system, exactly the state a solo skip+warm+measure pass over a
// fresh trace would: the fan-out changes the schedule, never the stream.
func TestRunWindowMatchesPerSystem(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.005)
	cfgs := []system.Config{
		testMachine(system.VR, tc.CPUs),
		testMachine(system.RRInclusion, tc.CPUs),
		testMachine(system.RRNoInclusion, tc.CPUs),
	}
	w := Window{Start: 6_000, End: 12_000, Warmup: 2_000}

	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		sys := build(t, cfg, tc)
		r := tracegen.MustNew(tc)
		if n, err := skipTranslating(sys, r, w.Start-w.Warmup); err != nil || n != w.Start-w.Warmup {
			t.Fatalf("skip: n=%d err=%v", n, err)
		}
		if n, err := sys.RunRefs(r, w.Warmup); err != nil || n != w.Warmup {
			t.Fatalf("warm: n=%d err=%v", n, err)
		}
		sys.ResetStats()
		if n, err := sys.RunRefs(r, w.End-w.Start); err != nil || n != w.End-w.Start {
			t.Fatalf("window: n=%d err=%v", n, err)
		}
		sys.Drain()
		want[i] = windowSnapshot(sys)
	}

	systems := make([]*system.System, len(cfgs))
	for i, cfg := range cfgs {
		systems[i] = build(t, cfg, tc)
	}
	if err := RunWindow(systems, tracegen.MustNew(tc), w); err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems {
		if got := windowSnapshot(sys); got != want[i] {
			t.Errorf("system %d diverged from its solo window run:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestRunWindowHeadClamp covers a window at the trace's head (warm-up
// clamped to Start) and a degenerate empty window.
func TestRunWindowHeadClamp(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	sys := build(t, testMachine(system.VR, tc.CPUs), tc)
	if err := RunWindow([]*system.System{sys}, tracegen.MustNew(tc), Window{Start: 0, End: 3_000, Warmup: 5_000}); err != nil {
		t.Fatal(err)
	}
	if sys.Refs() != 3_000 {
		t.Errorf("Refs = %d, want 3000", sys.Refs())
	}
	sys2 := build(t, testMachine(system.VR, tc.CPUs), tc)
	if err := RunWindow([]*system.System{sys2}, tracegen.MustNew(tc), Window{Start: 100, End: 100}); err != nil {
		t.Fatal(err)
	}
	if sys2.Refs() != 0 {
		t.Errorf("empty window simulated %d refs", sys2.Refs())
	}
}

// TestRunWindowPastEOF proves a window extending past the trace's end is a
// clean error, not a hang.
func TestRunWindowPastEOF(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	sys := build(t, testMachine(system.VR, tc.CPUs), tc)
	err := RunWindow([]*system.System{sys}, tracegen.MustNew(tc), Window{Start: 0, End: 1 << 40})
	if err == nil {
		t.Fatal("window past EOF did not error")
	}
}
