package main

import (
	"sort"
	"time"
)

// traceFacts are the counts a traced repetition read from the layers.
type traceFacts struct {
	sets                     []*counters
	simEvents, pendingMax    int64
	pkts, drops, faultEvents int64
	coreCycles               int64
	rlccDecisions, batchRows int64
	updates, updateSamples   int64
	telEvents, telBytes      int64
	flightDumps              int64
	runs, evals              int64
}

// add folds another job's facts in (train's per-policy jobs).
func (f *traceFacts) add(g *traceFacts) {
	f.simEvents += g.simEvents
	f.pendingMax = max(f.pendingMax, g.pendingMax)
	f.drops += g.drops
	f.updates += g.updates
	f.updateSamples += g.updateSamples
	f.runs += g.runs
}

// tracedRep is one traced repetition with its attribution.
type tracedRep struct {
	repStat
	rec  *recorder
	attr attribution
}

// runTraced runs one traced repetition under a root span. The root
// closes when its last child does, so the benchmark's own digesting
// after the simulated work is not charged to any layer.
func runTraced(w workload, name string) tracedRep {
	rec := &recorder{}
	var root *span
	r := timed(func() outcome {
		root = rec.begin(nil, "workload:"+name, "other", nil)
		return w.traced(rec, root)
	})
	root.End = root.Start
	for _, s := range rec.spans {
		if s.Parent == root.ID {
			root.End = max(root.End, s.End)
		}
	}
	return tracedRep{repStat: r, rec: rec, attr: rec.attribute()}
}

// measureTraced is the attribution run: untraced and traced
// repetitions alternate for the given host seconds (libra-mix adds one
// with every sink off), the traced fingerprint must equal the untraced
// one, and the traced repetition with the median wall time is
// attributed to the layers.
func measureTraced(def workloadDef, env benchEnv, seed int64, seconds float64, spansPath string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w, _, si, err := setupMedian(def, env, seed)
	if err != nil {
		return res, err
	}
	t := &tally{res: &res}
	off, hasOff := w.(*flowsWorkload)
	hasOff = hasOff && off.sinks
	if err := checkHeldOut(def, env, seed, t); err != nil {
		return res, err
	}
	var plain, sinkless []float64
	var traced []tracedRep
	start := time.Now()
	for len(traced) < 2 || time.Since(start).Seconds() < seconds {
		u := timed(w.rep)
		t.add("untraced", u.o, true)
		plain = append(plain, float64(u.o.WallNs))
		tr := runTraced(w, def.name)
		t.add("traced", tr.o, true)
		traced = append(traced, tr)
		if hasOff {
			o := timed(func() outcome { return off.run(false) })
			t.add("sinks off", o.o, false)
			if o.o.Fingerprint != u.o.Fingerprint {
				res.note("check sinks off: fingerprint %s differs from %s", o.o.Fingerprint, u.o.Fingerprint)
				res.Failed += o.o.Ops
			}
			sinkless = append(sinkless, float64(o.o.WallNs))
		}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].o.WallNs < traced[j].o.WallNs })
	tr := traced[len(traced)/2]
	var twalls []float64
	for _, x := range traced {
		twalls = append(twalls, float64(x.o.WallNs))
	}
	m := layerMetrics(tr, si)
	m["trace_overhead_frac"] = metric{(median(twalls) - median(plain)) / median(plain), "frac"}
	if hasOff {
		on := median(plain)
		m["telemetry.tax_frac"] = metric{(on - median(sinkless)) / on, "frac"}
	} else {
		m["telemetry.tax_frac"] = metric{0, "frac"}
	}
	res.Metrics = m

	// The accounting must close: no layer's self time negative, and the
	// named layers cover all but closureTol of the traced capacity.
	if len(tr.attr.Negative) > 0 {
		res.note("check accounting: negative self time %v", tr.attr.Negative)
		res.Failed += tr.o.Ops
	}
	if acc := m["accounted_frac"].Value; acc < 1-closureTol {
		res.note("check accounting: layers cover %.4f of traced capacity, below %.2f", acc, 1-closureTol)
		res.Failed += tr.o.Ops
	}
	res.note("traced repetitions %d, fingerprint %s, telemetry %s; accounting tolerance %.0f%%",
		len(traced), t.fingerprint, t.telemetry, 100*closureTol)
	for _, layer := range sortedKeys(tr.attr.Self) {
		res.note("self %-22s %14d ns  %6.2f%%", layer, tr.attr.Self[layer],
			100*float64(tr.attr.Self[layer])/float64(tr.attr.Capacity))
	}
	if err := tr.rec.write(spansPath); err != nil {
		return res, err
	}
	res.note("spans: %s", spansPath)
	res.Correct = res.Failed == 0
	return res, nil
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// layerMetrics turns one traced repetition into the per-layer
// metrics. Every metric is present for every workload; a layer the
// workload does not run reads zero.
func layerMetrics(tr tracedRep, si setupInfo) map[string]metric {
	f := tr.o.Trace
	if f == nil {
		f = &traceFacts{}
	}
	self := tr.attr.Self
	var cc, ccAcks, inflight, early int64
	for _, s := range f.sets {
		cc += s.cc.calls
		ccAcks += s.ccAcks
		inflight = max(inflight, int64(s.inflightMax))
		early += s.earlyExits
	}
	workers := 1
	for _, s := range tr.rec.spans {
		workers = max(workers, s.Workers)
	}
	m := map[string]metric{}
	ns := func(name string, v int64) { m[name] = metric{float64(v), "ns"} }
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	ratio := func(name string, num, den float64, unit string) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{v, unit}
	}
	pkts := float64(f.pkts)

	count("sim.events", f.simEvents)
	ratio("sim.events_per_pkt", float64(f.simEvents), pkts, "count")
	count("sim.pending_max", f.pendingMax)

	ns("netem.self_ns", self["netem"])
	ratio("netem.ns_per_pkt", float64(self["netem"]), pkts, "ns")
	count("netem.pkts", f.pkts)
	count("netem.drops", f.drops)
	count("netem.inflight_max_pkts", inflight/mss)
	ratio("netem.allocs_per_pkt", float64(tr.mallocs), pkts, "count")
	count("faults.events", f.faultEvents)

	ns("cc.ns", self["cc"])
	count("cc.calls", cc)
	ratio("cc.ns_per_ack", float64(self["cc"]), float64(ccAcks), "ns")

	ns("core.ns", self["core"])
	count("core.cycles", f.coreCycles)
	ratio("core.ns_per_cycle", float64(self["core"]), float64(f.coreCycles), "ns")
	ratio("core.early_exit_frac", float64(early), float64(f.coreCycles), "frac")

	ns("rlcc.ns", self["rlcc"])
	count("rlcc.decisions", f.rlccDecisions)
	ratio("rlcc.ns_per_decision", float64(self["rlcc"]), float64(f.rlccDecisions), "ns")
	ratio("rlcc.batch_rows_frac", float64(f.batchRows), float64(f.rlccDecisions), "frac")

	ns("rl.update_ns", self["rl.update"])
	count("rl.updates", f.updates)
	ratio("rl.update_ns_per_sample", float64(self["rl.update"]), float64(f.updateSamples), "ns")
	ns("rl.rollout_ns", self["rl.rollout"])

	count("telemetry.events", f.telEvents)
	m["telemetry.bytes"] = metric{float64(f.telBytes), "B"}
	ns("telemetry.recorder_ns", self["telemetry.recorder"])
	ns("telemetry.tscollect_ns", self["telemetry.tscollect"])
	ns("telemetry.flight_ns", self["telemetry.flight"])
	ns("analyze.feed_ns", self["analyze.feed"])
	count("telemetry.flight_dumps", f.flightDumps)

	ns("exp.self_ns", self["exp"])
	count("exp.runs", f.runs)
	ratio("sweep.cpu_util", float64(tr.cpuNs), float64(tr.o.WallNs)*float64(workers), "frac")
	ns("sweep.idle_ns", self["sweep"])
	ns("lab.self_ns", self["lab"])
	count("lab.evals", f.evals)
	ratio("lab.ns_per_eval", float64(tr.o.WallNs), float64(f.evals), "ns")

	ns("setup.models_ns", si.modelsNs)
	ns("setup.traces_ns", si.tracesNs)

	count("go.gc_cycles", int64(tr.gcCycles))
	ns("go.gc_pause_ns", int64(tr.gcPauseNs))
	m["go.cpu_s"] = metric{float64(tr.cpuNs) / 1e9, "s"}

	ns("other_ns", self["other"])
	ns("trace.capacity_ns", tr.attr.Capacity)
	ratio("accounted_frac", float64(tr.attr.Capacity-self["other"]), float64(tr.attr.Capacity), "frac")
	return m
}

// perLayerNames lists every per-layer metric, for BENCHMARK.json and
// the self-tests.
func perLayerNames() []string {
	m := layerMetrics(tracedRep{rec: &recorder{}}, setupInfo{})
	m["trace_overhead_frac"] = metric{}
	m["telemetry.tax_frac"] = metric{}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
