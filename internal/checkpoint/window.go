package checkpoint

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/system"
	"repro/internal/trace"
)

// Window is one approximate time shard: references [Start, End) are
// measured after a Warmup-reference prefix rebuilds cache and TLB contents
// (clamped to Start when the window sits near the trace's head). Bounds are
// in memory references; context switches pass through uncounted, exactly as
// ShardedRun cuts its windows.
type Window struct {
	Start, End uint64
	Warmup     uint64
}

// RunWindow drives every system through one approximate window off a single
// shared pass over r. Each shard of ShardedRun's approximate mode is one
// call with a single system; the autotuner's 2D (configurations × time
// shards) schedule calls it with G. The skipped prefix is still translated
// through every system's MMU so demand paging assigns frames in first-touch
// order (physical indexing cannot diverge from a full run), the warm-up is
// simulated and then discarded by ResetStats, and only [Start, End) lands
// in the statistics, with write buffers drained at the end.
//
// Each batch is read once and applied to every system in turn, so G
// configurations share one trace pass instead of G regenerations. Errors
// are annotated with the failing system's index; the first failure aborts.
func RunWindow(systems []*system.System, r trace.Reader, w Window) error {
	if w.End < w.Start {
		return fmt.Errorf("checkpoint: window [%d, %d) is inverted", w.Start, w.End)
	}
	warm := w.Warmup
	if warm > w.Start {
		warm = w.Start
	}
	buf := make([]trace.Ref, 4096)

	// Phase 1: skip [0, Start-warm), translating through every MMU.
	remaining := w.Start - warm
	for remaining > 0 {
		n, refs, err := trace.FillBatchRefs(r, buf, remaining)
		for _, sys := range systems {
			mmu := sys.MMU()
			for _, ref := range buf[:n] {
				if ref.Kind != trace.CtxSwitch {
					mmu.Translate(ref.PID, ref.Addr)
				}
			}
		}
		remaining -= refs
		if err != nil {
			if errors.Is(err, io.EOF) && remaining > 0 {
				return fmt.Errorf("checkpoint: trace ended %d references short of the skip", remaining)
			}
			if !errors.Is(err, io.EOF) {
				return err
			}
		}
	}

	// Phase 2: warm-up — simulated, then discarded.
	if err := applyRefs(systems, r, buf, warm, "warm-up"); err != nil {
		return err
	}
	for _, sys := range systems {
		sys.ResetStats()
	}

	// Phase 3: the measured window.
	if err := applyRefs(systems, r, buf, w.End-w.Start, "window"); err != nil {
		return err
	}
	for _, sys := range systems {
		sys.Drain()
	}
	return nil
}

// applyRefs streams exactly want memory references from r into every
// system, sharing each batch across all of them.
func applyRefs(systems []*system.System, r trace.Reader, buf []trace.Ref, want uint64, phase string) error {
	remaining := want
	for remaining > 0 {
		n, refs, err := trace.FillBatchRefs(r, buf, remaining)
		for i, sys := range systems {
			if aerr := sys.ApplyBatch(buf[:n]); aerr != nil {
				return fmt.Errorf("checkpoint: system %d: %w", i, aerr)
			}
		}
		remaining -= refs
		if err != nil {
			if errors.Is(err, io.EOF) && remaining > 0 {
				return fmt.Errorf("checkpoint: trace ended %d references into a %d-reference %s",
					want-remaining, want, phase)
			}
			if !errors.Is(err, io.EOF) {
				return err
			}
		}
	}
	return nil
}
