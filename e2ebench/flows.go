package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"libra/internal/analyze"
	"libra/internal/cc"
	"libra/internal/cc/orca"
	"libra/internal/cliutil"
	"libra/internal/core"
	"libra/internal/exp"
	"libra/internal/netem"
	"libra/internal/rlcc"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/trace"
	"libra/internal/utility"
)

// flowSpec is one flow of a shared-bottleneck workload.
type flowSpec struct {
	cca     string
	profile string // utility-profile label; "" leaves the flow unlabelled
}

// flowsWorkload runs several controllers over one bottleneck through
// exp.RunFlows (bulk-bdp, libra-mix).
type flowsWorkload struct {
	scen   exp.Scenario
	flows  []flowSpec
	starts []time.Duration
	seed   int64
	// agents is the loaded agent set; every repetition runs on a fresh
	// clone, because inference mutates normaliser statistics.
	agents *exp.AgentSet
	// sinks turns on every telemetry sink, writing under tmp.
	sinks bool
	tmp   string
	// override, when set, replaces flow 0's controller factory; the
	// self-tests inject a panicking controller through it.
	override exp.Maker
}

func (w *flowsWorkload) util(i int) (utility.Func, error) {
	if w.flows[i].profile == "" {
		return nil, nil
	}
	p, err := exp.ProfileByName(w.flows[i].profile)
	if err != nil {
		return nil, err
	}
	return p.Util, nil
}

// makers resolves the flows' controller factories. With a counter set
// (traced run), Libra flows are composed here the way exp.MakerFor
// composes them, with the classic adapter wrapped so its time is
// charged to cc rather than core.
func (w *flowsWorkload) makers(ag *exp.AgentSet, set *counters) ([]exp.Maker, error) {
	mks := make([]exp.Maker, len(w.flows))
	for i, f := range w.flows {
		u, err := w.util(i)
		if err != nil {
			return nil, err
		}
		if set != nil && (f.cca == "c-libra" || f.cca == "b-libra") {
			mks[i] = libraMaker(f.cca, ag, u, set)
			continue
		}
		if mks[i], err = exp.MakerFor(f.cca, ag, u); err != nil {
			return nil, err
		}
	}
	if w.override != nil {
		mks[0] = w.override
	}
	return mks, nil
}

// libraMaker mirrors exp.MakerFor's Libra construction with a timed
// classic adapter.
func libraMaker(kind string, ag *exp.AgentSet, u utility.Func, set *counters) exp.Maker {
	return func(seed int64) cc.Controller {
		base := cc.Config{Seed: seed}.WithDefaults()
		rlCfg := rlcc.LibraRLConfig(base)
		if ag != nil {
			rlCfg.Agent = ag.LibraRL
			rlCfg.Norm = ag.LibraNorm
		}
		var cl core.Classic = core.NewCubicAdapter(base)
		if kind == "b-libra" {
			cl = core.NewBBRAdapter(base)
		}
		return core.New(core.Config{
			CC:           base,
			RL:           rlcc.New("libra-rl", rlCfg),
			Util:         u,
			Name:         kind,
			RecordCycles: true,
			Classic:      &timedClassic{in: cl, set: set},
		})
	}
}

// capBytes is the most the bottleneck could deliver in the scenario.
func (w *flowsWorkload) capBytes() float64 {
	return trace.MeanRate(w.scen.Capacity, w.scen.Duration, 10*time.Millisecond) * w.scen.Duration.Seconds()
}

// run is one untraced repetition: exp.RunFlows, with every sink on
// when sinksOn.
func (w *flowsWorkload) run(sinksOn bool) outcome {
	t0 := nanotime()
	rc := exp.NewRunContext(w.seed)
	var sk *sinkSet
	if sinksOn {
		var err error
		if sk, err = openSinks(w.tmp, rc.Metrics, nil); err != nil {
			return outcome{Ops: len(w.flows), FailedOps: len(w.flows), Problems: []string{err.Error()}}
		}
		rc.Tracer = sk.tracer
	}
	mks, err := w.makers(w.agents.Clone(w.seed), nil)
	if err != nil {
		return outcome{Ops: len(w.flows), FailedOps: len(w.flows), Problems: []string{err.Error()}}
	}
	ms := rc.RunFlows(w.scen, mks, w.starts, 0)
	var sinkErr error
	if sk != nil {
		sinkErr = sk.close()
	}
	wall := nanotime() - t0
	ctrls := make([]cc.Controller, len(ms))
	for i, m := range ms {
		ctrls[i] = m.Ctrl
	}
	o := w.collect(ms, ctrls)
	o.WallNs = wall
	if sk != nil {
		w.finishSinks(&o, sk, sinkErr)
	}
	b := rc.Batch.Snapshot()
	o.Info["batch.rows"] = float64(b.Rows)
	return o
}

// collect turns per-flow metrics into an outcome; ctrls are the
// controllers as built (unwrapped).
func (w *flowsWorkload) collect(ms []exp.Metrics, ctrls []cc.Controller) outcome {
	o := outcome{Ops: len(ms), Info: map[string]float64{}}
	var h hasher
	var net *netem.Network
	var delivered int64
	for i, m := range ms {
		if m.Failed {
			o.FailedOps++
			o.Problems = append(o.Problems, fmt.Sprintf("flow %d: %v", i, m.Err))
			continue
		}
		net = m.Net
		name := ctrls[i].Name()
		fr := flowOf(name, m.Flow, w.scen.Capacity, w.scen.Duration)
		fr.CapBytes = w.capBytes()
		o.Flows = append(o.Flows, fr)
		delivered += fr.Acked
		h.str(name)
		h.flow(m.Flow)
		if l, ok := ctrls[i].(*core.Libra); ok {
			h.cycles(l)
			o.Info["core.cycles"] += float64(l.Telemetry().Cycles)
		}
	}
	o.Pkts = delivered / mss
	if net != nil {
		h.i64(net.Link().DeliveredBytes())
		h.i64(net.Link().DropStats().Total())
		if float64(net.Link().DeliveredBytes()) > w.capBytes()*1.0001 {
			o.Problems = append(o.Problems, "bottleneck delivered more than capacity × duration")
		}
	}
	o.Fingerprint = h.sum()
	probs := checkFlows(o.Flows)
	if len(probs) > 0 {
		o.Problems = append(o.Problems, probs...)
		o.FailedOps = o.Ops
	}
	return o
}

// finishSinks digests what the sinks produced, after timing stopped.
func (w *flowsWorkload) finishSinks(o *outcome, sk *sinkSet, closeErr error) {
	d, err := sk.digest()
	if closeErr != nil {
		err = closeErr
	}
	if err != nil {
		o.Problems = append(o.Problems, "telemetry: "+err.Error())
		o.FailedOps = o.Ops
	}
	o.Telemetry = d
	o.Info["telemetry.events"] = float64(sk.rec.Events())
	o.Info["telemetry.bytes"] = float64(sk.bytes)
	o.Info["telemetry.flight_dumps"] = float64(sk.fl.Dumps())
}

// runTraced is one traced repetition. exp.RunFlows keeps the engine, the
// batcher and the controllers to itself, so this composes the same
// public calls in the same order — netem.New, the controller makers,
// AttachTracer, AttachBatcher, EmitSpan/EmitProfile, AddFlow, Run,
// ObserveLink and Observe — with timing decorators around the
// controllers and sinks. The fingerprint and the telemetry digest prove
// it ran the same simulation as exp.RunFlows. One difference remains:
// Observe sees the decorator rather than *core.Libra, so the traced
// run's metrics registry lacks the per-cycle families.
func (w *flowsWorkload) runTraced(rec *recorder, parent *span, sinksOn bool) (o outcome) {
	set := &counters{}
	facts := &traceFacts{sets: []*counters{set}, runs: 1}
	t0 := nanotime()
	run := rec.begin(parent, "run:"+w.scen.Name, "exp", set)
	rc := exp.NewRunContext(w.seed)
	s := w.scen
	fail := func(err error) outcome {
		rec.end(run)
		return outcome{Ops: len(w.flows), FailedOps: len(w.flows), Problems: []string{err.Error()}, Trace: facts}
	}
	var sk *sinkSet
	if sinksOn {
		var err error
		if sk, err = openSinks(w.tmp, rc.Metrics, set); err != nil {
			return fail(err)
		}
		rc.Tracer = sk.tracer
	}
	mks, err := w.makers(w.agents.Clone(w.seed), set)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if r := recover(); r != nil {
			if sk != nil {
				sk.close()
			}
			o = fail(fmt.Errorf("panic: %v", r))
			o.WallNs = nanotime() - t0
		}
	}()
	n := netem.New(netem.Config{
		Capacity:    s.Capacity,
		MinRTT:      s.MinRTT,
		BufferBytes: s.Buffer,
		LossRate:    s.Loss,
		Seed:        rc.Seed,
		Tracer:      rc.Tracer,
	})
	set.eng = n.Eng
	rc.EmitSpan(0, -1, "scenario:"+s.Name, true)
	batcher := rlcc.NewBatcher()
	ctrls := make([]cc.Controller, len(mks))
	flows := make([]*netem.Flow, len(mks))
	for i, mk := range mks {
		var start time.Duration
		if i < len(w.starts) {
			start = w.starts[i]
		}
		ctrl := mk(sweep.SubSeed(rc.Seed, i))
		ctrls[i] = ctrl
		rc.EmitSpan(0, i, "flow:"+ctrl.Name(), true)
		rc.AttachTracer(ctrl, i)
		if c, ok := ctrl.(*rlcc.Controller); ok {
			c.AttachBatcher(batcher, i)
		}
		if i < len(s.Profiles) {
			rc.EmitProfile(0, i, s.Profiles[i])
		}
		wrapped, err := wrapController(ctrl, set.layerFor(w.flows[i].cca), set, isClassic(w.flows[i].cca))
		if err != nil {
			panic(err)
		}
		flows[i] = n.AddFlow(wrapped, start, 0)
	}
	netSpan := rec.begin(run, "netem.Run", "netem", set)
	n.Run(s.Duration)
	rec.end(netSpan)
	for i := range flows {
		rc.EmitSpan(s.Duration.Nanoseconds(), i, "flow:"+ctrls[i].Name(), false)
	}
	rc.EmitSpan(s.Duration.Nanoseconds(), -1, "scenario:"+s.Name, false)
	rc.ObserveLink(n, s.Duration)
	ms := make([]exp.Metrics, len(flows))
	for i, f := range flows {
		ms[i] = rc.Observe(n, f, s.Duration)
	}
	var sinkErr error
	if sk != nil {
		sinkErr = sk.close()
	}
	rec.end(run)
	wall := nanotime() - t0

	o = w.collect(ms, ctrls)
	o.WallNs = wall
	if sk != nil {
		w.finishSinks(&o, sk, sinkErr)
		facts.telEvents = sk.rec.Events()
		facts.telBytes = sk.bytes
		facts.flightDumps = sk.fl.Dumps()
	}
	_, events, pending := n.Eng.Progress()
	facts.simEvents = events
	facts.pendingMax = max(set.pendingMax, pending)
	facts.pkts = o.Pkts
	facts.drops = n.Link().DropStats().Total()
	facts.batchRows = batcher.Stats().Rows
	for _, c := range ctrls {
		switch c := c.(type) {
		case *core.Libra:
			facts.coreCycles += int64(c.Telemetry().Cycles)
		case *rlcc.Controller:
			facts.rlccDecisions += int64(c.Decisions())
		case *orca.Orca:
			facts.rlccDecisions += int64(c.Decisions())
		}
	}
	o.Trace = facts
	return o
}

// isClassic reports whether a flow's controller is a classic CCA, whose
// ACKs count toward cc.ns_per_ack.
func isClassic(cca string) bool {
	switch cca {
	case "cubic", "reno", "bbr":
		return true
	}
	return false
}

// layerFor picks the counter a flow-level controller is timed into.
func (c *counters) layerFor(cca string) *counter {
	switch cca {
	case "c-libra", "b-libra":
		return &c.core
	case "aurora", "mod-rl", "orca":
		return &c.rlcc
	}
	return &c.cc
}

// sinkSet is every telemetry sink a fully observed run feeds: the JSONL
// recorder (to a file), the flight recorder with its anomaly tap, the
// time-series collector and the streaming analyzer. The metrics
// registry is the run context's own.
type sinkSet struct {
	path   string
	rec    *telemetry.Recorder
	ts     *telemetry.TSCollector
	fl     *telemetry.FlightRecorder
	an     *analyze.Analyzer
	tracer telemetry.Tracer
	bytes  int64
}

// openSinks builds the sinks, writing under dir. With a counter set,
// each sink is wrapped so its Emit calls are timed.
func openSinks(dir string, reg *telemetry.Registry, set *counters) (*sinkSet, error) {
	flightDir := filepath.Join(dir, "flight")
	if err := os.RemoveAll(flightDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		return nil, err
	}
	// The previous repetition's event file is unlinked, not truncated:
	// truncating a file on ext4 makes closing it start writeback and
	// the next truncation wait for the disk, inside the timed region.
	s := &sinkSet{path: filepath.Join(dir, "events.jsonl")}
	if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.Create(s.path)
	if err != nil {
		return nil, err
	}
	s.rec = telemetry.NewRecorder(f)
	s.fl = telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: flightDir, Metrics: reg})
	tap := cliutil.AnomalyTap(s.fl)
	s.ts = telemetry.NewTSCollector(0, 0)
	s.an = analyze.New(analyze.Config{})
	// The flight recorder precedes its anomaly tap, so a dump already
	// holds the event that tripped it (as in the CLIs).
	sinks := []telemetry.Tracer{s.rec, s.fl, tap, s.ts, s.an}
	if set != nil {
		sinks = []telemetry.Tracer{
			&timedSink{in: s.rec, c: &set.recorder, set: set, countEarly: true},
			&timedSink{in: s.fl, c: &set.flight, set: set},
			&timedSink{in: tap, c: &set.flight, set: set},
			&timedSink{in: s.ts, c: &set.tscollect, set: set},
			&timedSink{in: s.an, c: &set.analyze, set: set},
		}
	}
	s.tracer = telemetry.Multi(sinks...)
	return s, nil
}

// close finishes the sinks: the analyzer's final windows, then the
// recorder's tail.
func (s *sinkSet) close() error {
	s.an.Finalize()
	if err := s.rec.Close(); err != nil {
		return err
	}
	return s.fl.Err()
}

// digest hashes the event stream, the time-series snapshot, the
// analyzer report and the flight-dump count.
func (s *sinkSet) digest() (string, error) {
	h := sha256.New()
	f, err := os.Open(s.path)
	if err != nil {
		return "", err
	}
	n, err := io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	s.bytes = n
	if err := s.ts.WriteJSON(h); err != nil {
		return "", err
	}
	if err := s.an.Report().WriteJSON(h); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "dumps=%d", s.fl.Dumps())
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
