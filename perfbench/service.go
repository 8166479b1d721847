package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobs/client"
	"repro/internal/tracegen"
)

// setupRepeats is how many job servers service-jobs opens from scratch,
// and closes again, before the one it measures with; setup_s is the
// median opening time.
const setupRepeats = 30

// jobSpec is one job of the mix, named by a stable key.
type jobSpec struct {
	key string
	raw []byte
}

// jobMix is the fixed set of jobs every round submits: per preset, short
// untimed and timed runs over each organization, two small sweeps, and
// two long runs that cross the manager's default 200k-record checkpoint
// cadence. Scales are chosen per preset so job lengths match across
// presets.
func jobMix() ([]jobSpec, error) {
	type entry struct {
		name    string
		kind    string
		refs    float64 // target reference count
		timed   bool
		machine *jobs.MachineSpec
		sweep   []jobs.MachineSpec
	}
	entries := []entry{
		{name: "run-vr", kind: jobs.KindRun, refs: 60_000, machine: &jobs.MachineSpec{Org: "vr"}},
		{name: "run-rr-timed", kind: jobs.KindRun, refs: 60_000, timed: true, machine: &jobs.MachineSpec{Org: "rr"}},
		{name: "run-rlt", kind: jobs.KindRun, refs: 60_000, machine: &jobs.MachineSpec{Org: "rlt"}},
		{name: "run-rrnoincl-timed", kind: jobs.KindRun, refs: 60_000, timed: true, machine: &jobs.MachineSpec{Org: "rrnoincl"}},
		{name: "sweep-orgs", kind: jobs.KindSweep, refs: 30_000, sweep: []jobs.MachineSpec{
			{Label: "vr", Org: "vr"}, {Label: "rr", Org: "rr"}, {Label: "rlt", Org: "rlt"},
		}},
		{name: "sweep-sizes-timed", kind: jobs.KindSweep, refs: 30_000, timed: true, sweep: []jobs.MachineSpec{
			{Label: "vr-8K/128K", Org: "vr", L1Size: 8 << 10, L2Size: 128 << 10},
			{Label: "rr-64K/1M", Org: "rr", L1Size: 64 << 10, L2Size: 1 << 20},
		}},
		{name: "long-vr-timed", kind: jobs.KindRun, refs: 260_000, timed: true, machine: &jobs.MachineSpec{Org: "vr"}},
		{name: "long-rr", kind: jobs.KindRun, refs: 260_000, machine: &jobs.MachineSpec{Org: "rr"}},
	}
	var mix []jobSpec
	for _, p := range presetNames {
		wl, err := tracegen.PresetByName(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			cfg := jobs.Config{
				Kind: e.kind, Preset: p, Timed: e.timed,
				Scale:   math.Round(e.refs/float64(wl.TotalRefs)*1e4) / 1e4,
				Machine: e.machine, Machines: e.sweep,
			}
			raw, err := json.Marshal(cfg)
			if err != nil {
				return nil, err
			}
			mix = append(mix, jobSpec{key: p + "/" + e.name, raw: raw})
		}
	}
	return mix, nil
}

// serviceJobs runs a jobs.Manager behind jobs.NewServer on loopback with
// NumCPU workers, and as many closed-loop clients, each submitting its
// next job only after fetching the previous one's report and time-series.
// Every round submits the whole mix once, in an order drawn from the seed.
type serviceJobs struct {
	mix     []jobSpec
	clients int
	srv     *server
	rng     *rand.Rand
	ctx     context.Context // bounds every client call of the run
	cancel  context.CancelFunc
	mu      sync.Mutex // guards the round's roundStats, written by clients
}

// roundStats collects what one round's clients measured.
type roundStats struct {
	refs, l1, l2 uint64
	lat          []float64
}

// server is one running job server and its client.
type server struct {
	dir     string
	m       *jobs.Manager
	s       *jobs.Server
	hs      *http.Server
	served  chan error
	client  *client.Client
	stopped bool
}

// openServer starts a manager on a fresh state directory and serves it on
// a loopback port.
func openServer(dir string, workers int) (*server, error) {
	m, err := jobs.Open(jobs.Options{Dir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	s := jobs.NewServer(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		m.Close()
		return nil, err
	}
	srv := &server{dir: dir, m: m, s: s, hs: &http.Server{Handler: s}, served: make(chan error, 1)}
	go func() { srv.served <- srv.hs.Serve(ln) }()
	srv.client = client.New("http://" + ln.Addr().String())
	return srv, nil
}

// close stops the server in vrsimd's order — streams, listener, manager —
// waits for the serving goroutine and removes the state directory.
func (s *server) close() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.m.Close(); err == nil {
		err = merr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *serviceJobs) start(b *bench) error {
	mix, err := jobMix()
	if err != nil {
		return err
	}
	w.mix = mix
	w.clients = runtime.NumCPU()
	b.lanes = w.clients
	w.rng = rand.New(rand.NewSource(b.seed))
	// A hung server must not hang the benchmark: every client call gives
	// up two minutes after the measured phase should have ended.
	w.ctx, w.cancel = context.WithTimeout(context.Background(), time.Duration(b.seconds*float64(time.Second))+2*time.Minute)
	// Set-up is sampled before the rounds start: sampled between rounds it
	// would also time the collection of the previous round's garbage.
	for k := 0; k <= setupRepeats; k++ {
		t0 := time.Now()
		srv, err := openServer(filepath.Join(b.state, fmt.Sprintf("jobs-%d", k)), w.clients)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		if k == setupRepeats {
			w.srv = srv
		} else if err := srv.close(); err != nil {
			return err
		}
	}
	return nil
}

func (w *serviceJobs) pass(b *bench, i int) (passResult, error) {
	order := w.rng.Perm(len(w.mix))
	next := make(chan int)
	var rs roundStats
	var clients sync.WaitGroup
	m := startMeter()
	for lane := 1; lane <= w.clients; lane++ {
		clients.Add(1)
		go func(lane int) {
			defer clients.Done()
			for k := range next {
				w.job(b, lane, w.mix[k], &rs)
			}
		}(lane)
	}
	for _, k := range order {
		next <- k
	}
	close(next)
	clients.Wait()
	var res passResult
	res.wall, res.cpu = m.stop()
	res.refs, res.l1, res.l2, res.lat = rs.refs, rs.l1, rs.l2, rs.lat
	return res, nil
}

// job submits one job and waits for it, fetching its report and its
// persisted time-series; the latency is submit → report received.
func (w *serviceJobs) job(b *bench, lane int, spec jobSpec, rs *roundStats) {
	ctx := w.ctx
	cl := w.srv.client
	key := "service-jobs/" + spec.key
	root := b.tr.root(lane, "bench", "job "+spec.key)
	defer root.end(0, 0)
	t0 := time.Now()
	sp := root.span("jobs", "client.Submit")
	st, err := cl.Submit(ctx, spec.raw)
	sp.end(0, 0)
	if err != nil {
		b.gate.fail("%s: submit: %v", key, err)
		return
	}
	sp = root.span("jobs", "client.Wait")
	st, err = cl.Wait(ctx, st.ID)
	sp.end(0, 0)
	if err == nil && st.State != jobs.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		b.gate.fail("%s: %v", key, err)
		return
	}
	sp = root.span("jobs", "client.Report")
	rep, err := cl.Report(ctx, st.ID)
	sp.end(0, uint64(len(rep)))
	lat := time.Since(t0).Seconds() * 1e3
	if err != nil {
		b.gate.fail("%s: report: %v", key, err)
		return
	}
	sp = root.span("tsdb", "client.Timeseries")
	ts, err := cl.Timeseries(ctx, st.ID, client.TimeseriesQuery{Metric: "l1ratio"})
	sp.end(0, 0)
	if err == nil && len(ts.Samples) == 0 {
		err = fmt.Errorf("no time-series samples")
	}
	if err != nil {
		b.gate.fail("%s: timeseries: %v", key, err)
		return
	}
	out, refs, l1, l2, err := canonicalReport(rep)
	b.gate.check(key, out, err, true)
	w.mu.Lock()
	rs.refs += refs
	rs.l1 += l1
	rs.l2 += l2
	rs.lat = append(rs.lat, lat)
	w.mu.Unlock()
}

func (w *serviceJobs) finish(b *bench) error {
	defer w.cancel()
	if b.traced {
		q, r := w.srv.m.Latency()
		b.layer["jobs.queue_ms"] = q.Mean()
		b.layer["jobs.run_ms"] = r.Mean()
		c := w.srv.m.Counters()
		b.layer["jobs.failed"] = float64(c.Failed)
	}
	return w.srv.close()
}

// canonicalReport strips the build stamp from a job report and re-encodes
// it with sorted keys, so its digest depends only on simulated results.
// It also returns the references and misses the report accounts for
// (misses derived from the reported hit ratios).
func canonicalReport(rep []byte) (out []byte, refs, l1, l2 uint64, err error) {
	dec := json.NewDecoder(bytes.NewReader(rep))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("report: %w", err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			delete(t, "build")
			if n, ok := t["references"].(json.Number); ok {
				r, _ := n.Int64()
				refs += uint64(r)
				h1 := ratio(t["l1"])
				h2 := ratio(t["l2"])
				m1 := math.Round(float64(r) * (1 - h1))
				l1 += uint64(m1)
				l2 += uint64(math.Round(m1 * (1 - h2)))
			}
			for _, c := range t {
				walk(c)
			}
		case []any:
			for _, c := range t {
				walk(c)
			}
		}
	}
	walk(doc)
	out, err = json.Marshal(doc)
	return out, refs, l1, l2, err
}

// ratio reads the "overall" hit ratio of a report level.
func ratio(v any) float64 {
	m, ok := v.(map[string]any)
	if !ok {
		return 0
	}
	n, _ := m["overall"].(json.Number)
	f, _ := n.Float64()
	return f
}
