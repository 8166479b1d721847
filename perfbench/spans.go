package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the simulator, recorded by the
// benchmark around the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Lane   int    `json:"lane"`   // goroutine lane: a pool worker or a client
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Phase  string `json:"phase"` // "workload" or "decomposition"
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Refs   uint64 `json:"refs,omitempty"`  // references the call processed
	Bytes  uint64 `json:"bytes,omitempty"` // bytes the call produced
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing: untraced runs pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	phase string
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), phase: "workload"} }

// setPass switches recording on or off for the next pass of the workload.
func (t *tracer) setPass(pass int, on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass, t.on = pass, on
	t.mu.Unlock()
}

func (t *tracer) setPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase, t.on = phase, true
	t.mu.Unlock()
}

// scope is the handle of an open span; the zero scope records nothing.
type scope struct {
	t    *tracer
	id   int
	lane int
}

// root opens a span with no parent on the given lane.
func (t *tracer) root(lane int, layer, name string) scope {
	return scope{t: t, id: -1, lane: lane}.span(layer, name)
}

// span opens a child span of s.
func (s scope) span(layer, name string) scope {
	t := s.t
	if t == nil {
		return scope{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return scope{}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: s.id, Lane: s.lane, Layer: layer, Name: name,
		Phase: t.phase, Pass: t.pass, Start: now, End: -1,
	})
	return scope{t: t, id: id, lane: s.lane}
}

// end closes the span, recording the references and bytes it handled.
func (s scope) end(refs, bytes uint64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.End, sp.Refs, sp.Bytes = now, refs, bytes
	s.t.mu.Unlock()
}

// done returns the closed spans, in the order they were opened.
func (t *tracer) done() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part its direct
// children cover, in seconds, indexed like spans.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// writeSpans stores the run's spans as JSON for later inspection.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
