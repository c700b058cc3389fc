package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// Set-up is repeated and its median reported: at least minSetups
	// times, then on until setupBudget has passed or maxSetups ran.
	minSetups   = 7
	maxSetups   = 200
	setupBudget = 200 * time.Millisecond
	// minReps is the fewest repetitions a run measures, whatever its
	// seconds.
	minReps = 3
	// closureTol is the accounting tolerance: the named layers must
	// cover at least 1-closureTol of the traced capacity.
	closureTol = 0.05
)

// repStat is one measured repetition with its runtime costs.
type repStat struct {
	o         outcome
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	cpuNs     int64
}

// timed runs f after a collection, so each repetition starts from the
// same heap, and records what it allocated.
func timed(f func() outcome) repStat {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuNs()
	o := f()
	c1 := cpuNs()
	runtime.ReadMemStats(&m1)
	return repStat{
		o:         o,
		allocB:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:   m1.Mallocs - m0.Mallocs,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		cpuNs:     c1 - c0,
	}
}

// heapPeak samples the live heap — the bytes the last collection
// marked reachable — every heapSampleEvery and keeps the maximum since
// the last take. MemStats.HeapSys, the runtime's own high-water mark,
// and the bytes in heap objects both swing by megabytes with when
// collections happen to run, so they read differently on identical
// runs; the median of per-repetition peaks reads alike.
type heapPeak struct {
	stop, done chan struct{}
	peak       atomic.Uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts anew.
func (h *heapPeak) take() uint64 { return h.peak.Swap(0) }

// end stops the sampler.
func (h *heapPeak) end() {
	close(h.stop)
	<-h.done
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupMedian runs the workload's set-up several times and reports the
// median time with its breakdown; the last instance is kept.
func setupMedian(def workloadDef, env benchEnv, seed int64) (workload, float64, setupInfo, error) {
	var times, models, traces []float64
	var w workload
	start := time.Now()
	for n := 0; n < maxSetups && (n < minSetups || time.Since(start) < setupBudget); n++ {
		t0 := nanotime()
		var si setupInfo
		var err error
		w, si, err = def.setup(env, seed)
		if err != nil {
			return nil, 0, setupInfo{}, fmt.Errorf("set up %s: %w", def.name, err)
		}
		times = append(times, float64(nanotime()-t0))
		models = append(models, float64(si.modelsNs))
		traces = append(traces, float64(si.tracesNs))
	}
	return w, median(times) / 1e9, setupInfo{modelsNs: int64(median(models)), tracesNs: int64(median(traces))}, nil
}

// tally accumulates operations and checks across a run.
type tally struct {
	res         *result
	fingerprint string
	telemetry   string
}

// add counts an outcome's operations; consistent demands that its
// fingerprint (and telemetry digest) repeat the first one seen.
func (t *tally) add(label string, o outcome, consistent bool) {
	t.res.Attempted += o.Ops
	failed := o.FailedOps
	for _, p := range o.Problems {
		t.res.note("check %s: %s", label, p)
	}
	if consistent {
		if t.fingerprint == "" {
			t.fingerprint, t.telemetry = o.Fingerprint, o.Telemetry
		} else if o.Fingerprint != t.fingerprint || o.Telemetry != t.telemetry {
			t.res.note("check %s: fingerprint %s/%s differs from %s/%s", label,
				o.Fingerprint, o.Telemetry, t.fingerprint, t.telemetry)
			failed = o.Ops
		}
	}
	t.res.Failed += failed
}

// checkHeldOut runs one repetition at the held-out seed through the
// same checks (determinism aside: there is nothing to repeat).
func checkHeldOut(def workloadDef, env benchEnv, seed int64, t *tally) error {
	w, _, err := def.setup(env, heldOut(seed))
	if err != nil {
		return err
	}
	o := w.rep()
	t.add("held-out", o, false)
	if p := w.simulated(o); p != nil {
		t.add("held-out composed pass", *p, false)
	}
	t.res.note("held-out seed %d: fingerprint %s", heldOut(seed), o.Fingerprint)
	return nil
}

// measure is the end-to-end run: set-up, the held-out check, then
// repetitions for the given host seconds with tracing off, then the
// output checks.
func measure(def workloadDef, env benchEnv, seed int64, seconds float64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w, setupS, _, err := setupMedian(def, env, seed)
	if err != nil {
		return res, err
	}
	t := &tally{res: &res}
	// The held-out repetition runs first and untimed: it warms the
	// heap, the caches and the code paths the measured ones use.
	if err := checkHeldOut(def, env, seed, t); err != nil {
		return res, err
	}
	var reps []repStat
	var peaks []float64
	peak := startHeapPeak()
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		peak.take()
		r := timed(w.rep)
		peaks = append(peaks, float64(peak.take())/1e6)
		t.add(fmt.Sprintf("repetition %d", len(reps)), r.o, true)
		reps = append(reps, r)
	}
	peak.end()

	sim := reps[0].o
	if p := w.simulated(sim); p != nil {
		t.add("composed pass", *p, false)
		sim = *p
	}

	var walls, allocs []float64
	for _, r := range reps {
		walls = append(walls, float64(r.o.WallNs)/1e9)
		allocs = append(allocs, float64(r.allocB)/1e6)
	}
	wall := median(walls)
	s := sim.Summary
	if s == nil {
		v := summarize(sim.Flows)
		s = &v
	}
	res.Metrics = endToEnd(wall, setupS, float64(sim.Pkts)/wall, median(allocs), median(peaks), *s)
	res.note("repetitions %d, fingerprint %s, telemetry %s", len(reps), t.fingerprint, t.telemetry)
	res.note("repetition walls (s): %.4f", walls)
	res.note("repetition peak heaps (MB): %.3f", peaks)
	res.note("output loss_pct = %g", s.LossPct)
	res.note("output jain = %g", s.Jain)
	for k, v := range sim.Info {
		res.note("output %s = %g", k, v)
	}
	res.Correct = res.Failed == 0 && s.finite()
	return res, nil
}

// endToEnd assembles the end-to-end metrics: host cost, then the
// simulated outputs, which a simulator-only change must leave as they
// are. Loss and Jain's index are checked and printed but are not
// metrics: across seeds they spread wider than any bound a regression
// check could use (see outputs in measure).
func endToEnd(wallS, setupS, pktsPerS, allocMB, heapMB float64, s simSummary) map[string]metric {
	return map[string]metric{
		"wall_s":         {wallS, "s"},
		"setup_s":        {setupS, "s"},
		"sim_pkts_per_s": {pktsPerS, "1/s"},
		"alloc_mb":       {allocMB, "MB"},
		"peak_heap_mb":   {heapMB, "MB"},
		"goodput_mbps":   {s.GoodputMbps, "Mbps"},
		"rtt_ms":         {s.RTTMs, "ms"},
	}
}

func endToEndNames() []string {
	m := endToEnd(0, 0, 0, 0, 0, simSummary{})
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
