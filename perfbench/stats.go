package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is one metric's distribution within a run: its median and the
// quartiles Python's statistics.quantiles(values, n=4) would give.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{Median: median(d), N: len(d)}
	s.Q1, s.Q3 = quartiles(d)
	return s
}

// median of an already sorted slice.
func median(d []float64) float64 {
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles implements the "exclusive" method of Python's
// statistics.quantiles(n=4) on a sorted slice.
func quartiles(d []float64) (q1, q3 float64) {
	if len(d) == 1 {
		return d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..100) of xs with linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	frac := pos - float64(lo)
	return d[lo]*(1-frac) + d[lo+1]*frac
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 {
		return float64(t.Sec) + float64(t.Usec)/1e6
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter measures one interval of wall and CPU time.
type meter struct {
	t0  time.Time
	cpu float64
}

func startMeter() meter { return meter{t0: time.Now(), cpu: cpuSeconds()} }

func (m meter) stop() (wall, cpu float64) {
	return time.Since(m.t0).Seconds(), cpuSeconds() - m.cpu
}

// resetPeakRSS restarts the kernel's peak-resident-set counter at the
// current resident set, so the next peakRSSMB covers one pass. Where the
// kernel refuses, peakRSSMB keeps reporting the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) in MiB since the last
// resetPeakRSS, or since the process started.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// host is the record printed with every result: a speed figure means
// little without the core count and toolchain it was measured with, or
// without knowing how much of the CPU the host took away while it ran.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPUModel   string  `json:"cpu"`
	StealShare float64 `json:"steal_share"` // of all CPU time during the measured passes
	// CalibMs times a fixed integer loop before and after the passes. It
	// does not touch the simulator, so a change in it is the host's.
	CalibMs [2]float64 `json:"calib_ms"`
}

// calibrate returns the median time in ms of a fixed CPU-bound loop.
func calibrate() float64 {
	var xs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		xs = append(xs, time.Since(t0).Seconds()*1e3)
	}
	return summarize(xs).Median
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// cpuTicks reads the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks; both are zero where it is unreadable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func hostRecord() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
