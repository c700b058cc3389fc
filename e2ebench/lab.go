package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"libra/internal/cc"
	"libra/internal/cc/bbr"
	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/sweep"
	"libra/internal/telemetry"
)

// labWorkload runs several adversarial searches against a classic
// target, each from its own sub-seed. One search walks one random path
// through the knob space, so its cost swings with the seed; a few
// shorter searches per repetition keep a run's cost steady.
type labWorkload struct {
	cfg      lab.SearchConfig
	searches int
	workers  int
}

// searchConfigs are the repetition's searches.
func (w *labWorkload) searchConfigs() []lab.SearchConfig {
	out := make([]lab.SearchConfig, w.searches)
	for i := range out {
		out[i] = w.cfg
		out[i].Seed = sweep.SubSeed(w.cfg.Seed, i)
	}
	return out
}

func (w *labWorkload) rep() outcome {
	t0 := nanotime()
	reg := telemetry.NewRegistry()
	var results []*lab.SearchResult
	for _, cfg := range w.searchConfigs() {
		rc := exp.NewRunContext(cfg.Seed)
		rc.Workers = w.workers
		rc.Metrics = reg
		res, err := lab.Search(rc, cfg)
		if err != nil {
			return outcome{WallNs: nanotime() - t0, Ops: 1, FailedOps: 1, Problems: []string{err.Error()}}
		}
		results = append(results, res)
	}
	wall := nanotime() - t0
	o := w.collect(results, reg.Snapshot(), w.cfg.Target)
	o.WallNs = wall
	return o
}

func (w *labWorkload) simulated(outcome) *outcome { return nil }

// collect fingerprints the search results and checks every reported
// evaluation. The simulated outputs summarise the target over the
// screening evaluations (the clean link and each fault preset): their
// scenario shapes are fixed, where the rest of a search goes wherever
// its seed leads. Packets count every flow of every evaluation, from
// the shared metrics registry. target is the registered name the
// searches ran under; it is normalised so traced and untraced runs hash
// alike.
func (w *labWorkload) collect(results []*lab.SearchResult, snap telemetry.Snapshot, target string) outcome {
	o := outcome{Info: map[string]float64{}}
	o.FailedOps = int(snap.Counters["libra_flow_failures_total"])
	var h hasher
	var thr, delay, loss []float64
	for _, res := range results {
		o.Ops += res.Evals
		js, err := json.Marshal(res)
		if err != nil {
			o.Problems = append(o.Problems, err.Error())
		}
		h.str(strings.ReplaceAll(string(js), target, w.cfg.Target))
		screen := append([]lab.Outcome{res.Baseline}, res.Presets...)
		for i, v := range append(screen, res.Best) {
			if v.Failed {
				o.Problems = append(o.Problems, "evaluation failed: "+v.Spec.Label)
				continue
			}
			if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
				o.Problems = append(o.Problems, "non-finite score: "+v.Spec.Label)
			}
			if v.ThrMbps <= 0 {
				o.Problems = append(o.Problems, "zero goodput: "+v.Spec.Label)
			}
			if v.ThrMbps > v.Spec.CapMbps*1.0001 {
				o.Problems = append(o.Problems, fmt.Sprintf("%s: goodput %.3f above capacity %.3f Mbps", v.Spec.Label, v.ThrMbps, v.Spec.CapMbps))
			}
			if i < len(screen) {
				thr = append(thr, v.ThrMbps)
				delay = append(delay, v.DelayMs)
				loss = append(loss, 100*v.LossRate)
			}
		}
		o.Info["lab.best_score_mean"] += res.Best.Score / float64(len(results))
	}
	o.Fingerprint = h.sum()
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "libra_flow_acked_bytes_total") {
			o.Pkts += v / mss
		}
	}
	s := simSummary{GoodputMbps: mean(thr), RTTMs: mean(delay), LossPct: mean(loss), Jain: jain(thr)}
	if !s.finite() {
		o.Problems = append(o.Problems, "non-finite simulated summary")
	}
	o.Summary = &s
	if len(o.Problems) > 0 {
		o.FailedOps = o.Ops
	}
	return o
}

// tracedTarget is the cc registry name the traced search runs its
// target under: the same controller, built the way exp.MakerFor builds
// it, wrapped in a timing decorator.
const tracedTarget = "e2e-timed-bbr"

// labProbe collects the counter sets of the decorated target
// controllers; the search builds them on its worker goroutines.
var labProbe struct {
	once sync.Once
	mu   sync.Mutex
	sets []*counters
}

func registerTracedTarget() {
	labProbe.once.Do(func() {
		cc.Register(tracedTarget, func(cfg cc.Config) cc.Controller {
			set := &counters{}
			labProbe.mu.Lock()
			labProbe.sets = append(labProbe.sets, set)
			labProbe.mu.Unlock()
			c, err := wrapController(bbr.New(cfg), &set.cc, set, true)
			if err != nil {
				panic(err)
			}
			return c
		})
	})
}

// runCounter counts runs from the flow registrations exp makes as it
// builds each run's flows (flow 0 is the target).
type runCounter struct{ n atomic.Int64 }

func (r *runCounter) RegisterFlow(id int, _ string) {
	if id == 0 {
		r.n.Add(1)
	}
}

// traced runs the searches with the target decorated. lab.Search
// keeps its networks, runs and analyzer inside; from outside, the
// target's controller time is separable (cc), the workers' idle time is
// estimated from process CPU (sweep), and everything else — netem, exp,
// the lab's own analyzer and scoring — stays in lab's self time.
func (w *labWorkload) traced(rec *recorder, parent *span) outcome {
	if w.cfg.Target != "bbr" {
		return outcome{Ops: 1, FailedOps: 1, Problems: []string{"traced lab-search decorates bbr only"}}
	}
	registerTracedTarget()
	reg := telemetry.NewRegistry()
	runs := &runCounter{}
	facts := &traceFacts{}
	var results []*lab.SearchResult
	t0 := nanotime()
	for _, cfg := range w.searchConfigs() {
		cfg.Target = tracedTarget
		rc := exp.NewRunContext(cfg.Seed)
		rc.Workers = w.workers
		rc.Metrics = reg
		rc.Live = runs
		labProbe.mu.Lock()
		labProbe.sets = nil
		labProbe.mu.Unlock()
		search := rec.begin(parent, "lab.Search", "lab", nil)
		search.Workers = w.workers
		cpu0 := cpuNs()
		res, err := lab.Search(rc, cfg)
		cpu := cpuNs() - cpu0
		rec.end(search)
		if err != nil {
			return outcome{WallNs: nanotime() - t0, Ops: 1, FailedOps: 1, Problems: []string{err.Error()}}
		}
		results = append(results, res)
		labProbe.mu.Lock()
		sets := labProbe.sets
		labProbe.mu.Unlock()
		var ccNs int64
		for _, s := range sets {
			ccNs += s.cc.ns
		}
		facts.sets = append(facts.sets, sets...)
		dur := search.End - search.Start
		search.Extra = map[string]int64{"cc": ccNs, "sweep": max(0, dur*int64(w.workers)-cpu)}
	}
	wall := nanotime() - t0
	o := w.collect(results, reg.Snapshot(), tracedTarget)
	o.WallNs = wall
	facts.runs, facts.evals, facts.pkts = runs.n.Load(), int64(o.Ops), o.Pkts
	for k, v := range reg.Snapshot().Counters {
		if !strings.HasPrefix(k, "libra_link_drops_total") {
			continue
		}
		facts.drops += v
		if strings.Contains(k, `reason="blackout"`) || strings.Contains(k, `reason="burst"`) {
			facts.faultEvents += v
		}
	}
	o.Trace = facts
	return o
}
