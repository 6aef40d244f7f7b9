package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what the process spent over one phase.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user + system, every goroutine of the process
	mallocs uint64        // heap allocations
	gcCPU   float64       // GC share of the runtime's CPU accounting
}

// phaseStart is the process state a phase is measured from.
type phaseStart struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	gc, all float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPUClasses() (gc, all float64) {
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		all = s[1].Value.Float64()
	}
	return gc, all
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginPhase() phaseStart {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := readCPUClasses()
	return phaseStart{t: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, gc: gc, all: all}
}

func (s phaseStart) end() usage {
	wall := time.Since(s.t)
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := readCPUClasses()
	u := usage{wall: wall, cpu: cpu - s.cpu, mallocs: ms.Mallocs - s.mallocs}
	if all > s.all {
		u.gcCPU = (gc - s.gc) / (all - s.all)
	}
	return u
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB. Each
// run is its own process, so no other workload's memory is in it.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hist is a fixed-size log-linear histogram of durations: bucket i
// holds [histBase·histStep^i, histBase·histStep^(i+1)) ns, a 0.5%
// resolution from 100 ns to beyond a minute. Recording never
// allocates, so the benchmark's own heap stays flat over a timed phase
// and does not shift the program's garbage-collection pacing.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histBuckets = 4096
	histBase    = 100.0
	histStep    = 1.005
)

var logStep = math.Log(histStep)

func (h *hist) add(d time.Duration) {
	i := 0
	if ns := float64(d.Nanoseconds()); ns > histBase {
		i = int(math.Log(ns/histBase) / logStep)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile in ns, interpolated linearly by rank
// inside its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := histBase * math.Pow(histStep, float64(i))
			return lo + (rank-cum)/float64(c)*lo*(histStep-1)
		}
		cum += float64(c)
	}
	return histBase * math.Pow(histStep, histBuckets)
}

// windows records one connection's round trips and good answers per
// window of a timed phase, by completion time.
type windows struct {
	start time.Time
	width time.Duration
	lat   []hist
	good  []int64
}

// newWindows splits a phase of length dur into windows of about
// width, at least one; the caller sets start when the phase begins. Throughput and latency quantiles are medians
// over the windows, so a disturbance confined to one window moves
// them little.
func newWindows(dur, width time.Duration) *windows {
	n := int(dur / width)
	if n < 1 {
		n = 1
	}
	return &windows{width: dur / time.Duration(n), lat: make([]hist, n), good: make([]int64, n)}
}

// add records a round trip completing at end in its window.
func (w *windows) add(end time.Time, d time.Duration, good int64) {
	i := int(end.Sub(w.start) / w.width)
	if i < 0 {
		i = 0
	} else if i >= len(w.lat) {
		i = len(w.lat) - 1
	}
	w.lat[i].add(d)
	w.good[i] += good
}

// allLatencies merges every round trip of the phase.
func allLatencies(ws []*windows) *hist {
	var all hist
	for _, w := range ws {
		for i := range w.lat {
			all.merge(&w.lat[i])
		}
	}
	return &all
}

// figures are a timed phase's end-to-end numbers: medians over its
// windows of throughput, round-trip p50, p95 and p99 (ns) and CPU per
// good query (ns), plus the per-window values behind them.
type figures struct {
	qps, p50, p95, p99, cpu float64
	n                       int // round trips
	winQPS, winP95          []float64
}

// summarize merges the connections' windows; cpu[i], when cpu is
// given, is the process CPU time spent in window i.
func summarize(ws []*windows, cpu []time.Duration) figures {
	var f figures
	var l50, l99, c []float64
	for i := range ws[0].lat {
		var lat hist
		var good int64
		for _, w := range ws {
			lat.merge(&w.lat[i])
			good += w.good[i]
		}
		f.n += lat.n
		f.winQPS = append(f.winQPS, float64(good)/ws[0].width.Seconds())
		l50 = append(l50, lat.quantile(0.50))
		f.winP95 = append(f.winP95, lat.quantile(0.95))
		l99 = append(l99, lat.quantile(0.99))
		if cpu != nil && good > 0 {
			c = append(c, float64(cpu[i].Nanoseconds())/float64(good))
		}
	}
	f.qps, f.p50, f.p95, f.p99, f.cpu = median(f.winQPS), median(l50), median(f.winP95), median(l99), median(c)
	return f
}

// cpuWindows samples the process CPU time at each boundary of w's
// windows; the returned function stops the sampler and returns the
// CPU time of each window.
func cpuWindows(w *windows) func() []time.Duration {
	cpu := make([]time.Duration, len(w.lat))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := processCPU()
		for i := range cpu {
			t := time.NewTimer(time.Until(w.start.Add(time.Duration(i+1) * w.width)))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				cpu[i] = processCPU() - prev
				return
			}
			now := processCPU()
			cpu[i], prev = now-prev, now
		}
		<-stop
	}()
	return func() []time.Duration {
		close(stop)
		<-done
		return cpu
	}
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// A run boots its system at least minSetups times and until
// setupBudget has passed (at most maxSetups times); setup_s is the
// median boot. Cheap boots are repeated more, which steadies their
// median.
const (
	minSetups   = 9
	maxSetups   = 51
	setupBudget = 250 * time.Millisecond
)

// timeSetups boots a system repeatedly, timing each boot up to its
// first checked answer, closes every system but the last and returns
// that one with the median boot time in seconds.
func timeSetups[S any](boot func() (S, error), closeSys func(S)) (S, float64, error) {
	var sys S
	var times []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			closeSys(sys)
		}
		t0 := time.Now()
		s, err := boot()
		if err != nil {
			return sys, 0, fmt.Errorf("setup %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, median(times), nil
}

// setEndToEnd fills the end-to-end metrics shared by every workload
// from the phase's figures, with allocations per correctly answered
// query over the whole phase.
func setEndToEnd(rep *report, good int64, u usage, f figures, setup float64) error {
	rss, err := rssPeakMB()
	if err != nil {
		return err
	}
	q := float64(good)
	if q == 0 {
		q = 1
	}
	rep.set("queries_per_s", f.qps, "1/s")
	rep.set("latency_p50_us", f.p50/1e3, "us")
	rep.set("latency_p95_us", f.p95/1e3, "us")
	rep.set("cpu_us_per_query", f.cpu/1e3, "us")
	rep.set("allocs_per_query", float64(u.mallocs)/q, "count")
	rep.set("rss_peak_mb", rss, "MB")
	rep.set("setup_s", setup, "s")
	failFrac := 0.0
	if rep.attempted > 0 {
		failFrac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.note("fail_frac %.6f (%d of %d queries)", failFrac, rep.failed, rep.attempted)
	rep.note("latency samples %d in %d windows", f.n, len(f.winQPS))
	rep.note("values behind the medians: queries_per_s %.0f, latency_p95_us %.1f", f.winQPS, scaled(f.winP95, 1e-3))
	// p99 is printed, not reported as a metric: on small shared
	// virtual machines it follows hypervisor steal, and its run-to-run
	// spread reaches the largest bound a metric may have.
	rep.note("latency_p99_us %.1f (median over windows; not a gated metric)", f.p99/1e3)
	rep.note("whole phase: %.1f queries/s, %.2f us CPU per query (the in-process client included)",
		float64(good)/u.wall.Seconds(), float64(u.cpu.Nanoseconds())/1e3/q)
	return nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
