package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/orca"
	"libra/internal/core"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/rlcc"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/trace"
	"libra/internal/utility"

	// Classic CCAs register themselves with cc; MakerFor resolves them
	// by name.
	_ "libra/internal/cc/copa"
	_ "libra/internal/cc/indigo"
	_ "libra/internal/cc/remy"
	_ "libra/internal/cc/reno"
	_ "libra/internal/cc/sprout"
	_ "libra/internal/cc/vegas"
	_ "libra/internal/cc/vivace"
)

// Scenario is one emulated-network workload.
type Scenario struct {
	Name     string
	Capacity trace.Trace
	MinRTT   time.Duration
	Buffer   int
	Loss     float64
	Duration time.Duration
	// Faults composes adversarial link dynamics onto the bottleneck.
	// Nil falls back to the RunContext's plan (itself nil by default:
	// no faults).
	Faults *faults.Plan
	// Topo, when set, runs the scenario over a multi-hop topology
	// instead of the single bottleneck: the flows under test ride the
	// spec's main route, cross traffic is placed per the spec, and
	// Capacity/MinRTT/Buffer/Loss are ignored in favour of the per-link
	// parameters. Nil falls back to the RunContext's spec (itself nil
	// by default: single bottleneck).
	Topo *TopoSpec
	// Profiles labels flows with utility-profile names, index-aligned
	// with the makers passed to RunFlows ("" = unlabelled). Labelled
	// flows are stamped with a TypeProfile event at start, keying
	// per-profile time series and SLO attainment.
	Profiles []string
}

// WiredScenarios returns the paper's wired trace set (Fig. 1 uses
// 24/48/96 Mbps; Fig. 7 adds 12 Mbps), with 30 ms RTT and 150 KB buffer.
func WiredScenarios(d time.Duration, mbps ...float64) []Scenario {
	if len(mbps) == 0 {
		mbps = []float64{12, 24, 48, 96}
	}
	out := make([]Scenario, 0, len(mbps))
	for _, m := range mbps {
		out = append(out, Scenario{
			Name:     fmt.Sprintf("Wired-%gMbps", m),
			Capacity: trace.Constant(trace.Mbps(m)),
			MinRTT:   30 * time.Millisecond,
			Buffer:   150_000,
			Duration: d,
		})
	}
	return out
}

// LTEScenarios returns the synthetic cellular trace set (LTE#1..#3 plus
// the driving tour), 30 ms RTT, 150 KB buffer.
func LTEScenarios(d time.Duration, seed int64) []Scenario {
	mk := func(name string, tr trace.Trace) Scenario {
		return Scenario{Name: name, Capacity: tr, MinRTT: 30 * time.Millisecond,
			Buffer: 150_000, Duration: d}
	}
	return []Scenario{
		mk("LTE-stationary", trace.NewLTE(trace.LTEStationary, d, seed+1)),
		mk("LTE-walking", trace.NewLTE(trace.LTEWalking, d, seed+2)),
		mk("LTE-driving", trace.NewLTE(trace.LTEDriving, d, seed+3)),
		mk("LTE-tour", trace.NewDrivingTour(d, seed+4)),
	}
}

// Metrics summarises one flow's run.
type Metrics struct {
	Util     float64
	ThrMbps  float64
	DelayMs  float64
	LossRate float64
	// CPUFrac is controller compute-time divided by simulated time —
	// the overhead metric (Fig. 2c / Fig. 12).
	CPUFrac float64
	Flow    *netem.Flow
	// Topo is the topology the flow ran on; Net is the
	// single-bottleneck view of it (nil for topology runs).
	Net  *netem.Network
	Topo *netem.Topology
	Ctrl cc.Controller
	// Failed marks a run aborted by a controller panic or an invalid
	// configuration; Err carries the cause and every other field is
	// zero. The harness records the failure and keeps going instead of
	// taking the whole experiment down.
	Failed bool
	Err    error
}

// Utilities scores each of the flow's first n seconds with Eq. 1: the
// second's throughput, the latency gradient against the previous
// second's mean delay (0 for second 0), and the given loss rate.
func (m Metrics) Utilities(u utility.Libra, n int, loss float64) []float64 {
	out := make([]float64, n)
	for t := range out {
		thr := trace.ToMbps(m.Flow.Stats.Throughput.Rate(t))
		grad := 0.0
		if t > 0 {
			grad = (m.Flow.Stats.Delay.Mean(t) - m.Flow.Stats.Delay.Mean(t-1)) / 1000
		}
		out[t] = u.Value(thr, grad, loss)
	}
	return out
}

// Maker constructs a fresh controller per flow.
type Maker func(seed int64) cc.Controller

// learned builds the registered controllers that have a learning
// component, around the agent set's trained policy (an untrained one
// when ag is nil). Every other name is built by the cc registry.
var learned = map[string]func(seed int64, ag *AgentSet, util utility.Func) cc.Controller{
	"aurora": func(seed int64, ag *AgentSet, _ utility.Func) cc.Controller {
		cfg := rlcc.AuroraConfig(cc.Config{Seed: seed})
		if ag != nil {
			cfg.Agent, cfg.Norm = ag.Aurora, ag.AuroraNorm
		}
		return rlcc.New("aurora", cfg)
	},
	"orca": func(seed int64, ag *AgentSet, _ utility.Func) cc.Controller {
		cfg := rlcc.OrcaRLConfig(cc.Config{Seed: seed})
		if ag != nil {
			cfg.Agent, cfg.Norm = ag.Orca, ag.OrcaNorm
		}
		return orca.New(cfg)
	},
	"mod-rl": func(seed int64, ag *AgentSet, _ utility.Func) cc.Controller {
		cfg := rlcc.LibraRLConfig(cc.Config{Seed: seed})
		cfg.RewardFunc = utility.Default().Value
		if ag != nil {
			cfg.Agent, cfg.Norm = ag.ModRL, ag.ModRLNorm
		}
		return rlcc.New("mod-rl", cfg)
	},
}

func init() {
	for _, name := range core.Variants() {
		learned[name] = func(seed int64, ag *AgentSet, util utility.Func) cc.Controller {
			return newLibra(name, seed, ag, util, nil)
		}
	}
}

// newLibra builds the named Libra variant around the set's trained RL
// component (an untrained one when ag is nil), recording its control
// cycles. mutate, when set, adjusts the configuration before the
// variant's classic CCA is installed (ablations, sensitivity sweeps).
func newLibra(name string, seed int64, ag *AgentSet, util utility.Func, mutate func(*core.Config)) cc.Controller {
	base := cc.Config{Seed: seed}.WithDefaults()
	rlCfg := rlcc.LibraRLConfig(base)
	if ag != nil {
		rlCfg.Agent, rlCfg.Norm = ag.LibraRL, ag.LibraNorm
	}
	cfg := core.Config{CC: base, RL: rlcc.New("libra-rl", rlCfg), Util: util, RecordCycles: true}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.NewVariant(name, cfg)
}

// KnownCCAs returns every controller name MakerFor accepts, sorted:
// the cc registry, where the learning CCAs are registered too.
func KnownCCAs() []string { return cc.Names() }

// MakerFor builds a controller factory for name, binding the trained
// agents where the algorithm has a learning component. Libra variants
// accept a utility override via util (nil = paper default). Unknown
// names return an error listing every known controller.
func MakerFor(name string, ag *AgentSet, util utility.Func) (Maker, error) {
	if !slices.Contains(cc.Names(), name) {
		return nil, fmt.Errorf("exp: unknown controller %q (known: %s)",
			name, strings.Join(KnownCCAs(), ", "))
	}
	if build, ok := learned[name]; ok {
		return func(seed int64) cc.Controller { return build(seed, ag, util) }, nil
	}
	return func(seed int64) cc.Controller {
		ctrl, err := cc.New(name, cc.Config{Seed: seed})
		if err != nil {
			panic(err) // unreachable: name validated against the registry above
		}
		return ctrl
	}, nil
}

// ccaUsesAgents reports whether the named controller consults the
// trained agent set; for anything else, resolving agents (and possibly
// triggering lazy training) would be pure waste.
func ccaUsesAgents(name string) bool {
	_, ok := learned[name]
	return ok
}

// mustMaker is MakerFor for statically known controller names (the
// experiment definitions); it panics on a name the registry rejects.
func mustMaker(name string, ag *AgentSet, util utility.Func) Maker {
	mk, err := MakerFor(name, ag, util)
	if err != nil {
		panic(err)
	}
	return mk
}

// planFor resolves the scenario's fault plan, falling back to the
// context's; nil means no faults.
func (rc *RunContext) planFor(s Scenario) *faults.Plan {
	if s.Faults != nil {
		return s.Faults
	}
	return rc.FaultPlan
}

// topoFor resolves the scenario's topology spec, falling back to the
// context's (libra-bench -topo); nil means the single bottleneck.
func (rc *RunContext) topoFor(s Scenario) *TopoSpec {
	if s.Topo != nil {
		return s.Topo
	}
	return rc.Topo
}

// failedRun records one aborted run and returns its marker metrics
// for every flow the run was to drive.
func (rc *RunContext) failedRun(s Scenario, flows int, err error) []Metrics {
	rc.Metrics.Counter("libra_flow_failures_total",
		"flow runs aborted by a controller panic or invalid configuration").Inc()
	m := Metrics{Failed: true, Err: fmt.Errorf("scenario %s: %w", s.Name, err)}
	out := make([]Metrics, flows)
	for i := range out {
		out[i] = m
	}
	return out
}

// RunFlow drives one controller over a scenario, seeded by the
// context, and returns its metrics. When bucket > 0 the flow records
// time series at that width. See RunFlows for what the run records and
// how failures are contained.
func (rc *RunContext) RunFlow(s Scenario, mk Maker, bucket time.Duration) Metrics {
	return rc.run(s, []Maker{mk}, nil, bucket, []int64{rc.Seed})[0]
}

// RunFlows drives several controllers sharing the scenario's path;
// starts[i] delays flow i. Per-flow seeds are sub-derived from the
// context seed. Returns per-flow metrics, also summarised into
// rc.Metrics; rc.Tracer is wired through the network and controllers.
// A panic out of a maker or controller (or an invalid fault plan or
// topology) is contained: every flow of the run is returned Failed
// with Err naming the scenario, instead of unwinding the experiment.
func (rc *RunContext) RunFlows(s Scenario, mks []Maker, starts []time.Duration, bucket time.Duration) []Metrics {
	return rc.run(s, mks, starts, bucket, nil)
}

// run is the one loop behind RunFlow and RunFlows. It builds the
// scenario's network — the single bottleneck (netem.New, whose one
// unlabelled link is the main route) or the topology spec — attaches
// the makers' controllers to the main route in maker order, places the
// spec's cross traffic after them, runs for the scenario duration, and
// summarises links and main flows. seeds[i] overrides flow i's seed; a
// nil slice sub-derives per flow index.
func (rc *RunContext) run(s Scenario, mks []Maker, starts []time.Duration, bucket time.Duration, seeds []int64) (out []Metrics) {
	rc.WithDefaults()
	var tp *netem.Topology
	var flows []*netem.Flow
	defer func() {
		if r := recover(); r != nil {
			// The anomaly markers reach the flight recorder through the
			// ordinary (ordered) event stream, so the rings at the moment
			// of the crash are dumped deterministically: one per attached
			// flow, or one run-scoped (-1) when none was attached yet.
			var t int64
			if tp != nil {
				t = int64(tp.Eng.Now())
			}
			for i := range flows {
				rc.EmitAnomaly(t, i, telemetry.AnomalyPanic)
			}
			if len(flows) == 0 {
				rc.EmitAnomaly(t, -1, telemetry.AnomalyPanic)
			}
			out = rc.failedRun(s, len(mks), fmt.Errorf("panic: %v", r))
		}
	}()

	var n *netem.Network
	var main *netem.Route
	var routes map[string]*netem.Route
	var cross []CrossFlow
	ts := rc.topoFor(s)
	if ts == nil {
		var inj netem.FaultInjector
		if plan := rc.planFor(s); !plan.Empty() {
			fi, err := faults.New(plan, rc.Seed)
			if err != nil {
				return rc.failedRun(s, len(mks), err)
			}
			inj = fi
		}
		n = netem.New(netem.Config{
			Capacity:     s.Capacity,
			MinRTT:       s.MinRTT,
			BufferBytes:  s.Buffer,
			LossRate:     s.Loss,
			Faults:       inj,
			Seed:         rc.Seed,
			SeriesBucket: bucket,
			Tracer:       rc.Tracer,
			Health:       rc.Health,
		})
		tp, main = n.Topology, n.Routes()[0]
	} else {
		var err error
		tp, routes, err = ts.Build(TopoBuild{
			Seed:         rc.Seed,
			Tracer:       rc.Tracer,
			Health:       rc.Health,
			SeriesBucket: bucket,
			ExtraFaults:  rc.planFor(s),
		})
		if err != nil {
			return rc.failedRun(s, len(mks), err)
		}
		main, cross = routes[ts.Main], ts.Cross
	}

	rc.EmitSpan(0, -1, "scenario:"+s.Name, true)
	batcher := rc.newBatcher()
	names := make([]string, len(mks))
	for i, mk := range mks {
		seed := sweep.SubSeed(rc.Seed, i)
		if i < len(seeds) {
			seed = seeds[i]
		}
		var start time.Duration
		if i < len(starts) {
			start = starts[i]
		}
		ctrl := mk(seed)
		names[i] = ctrl.Name()
		rc.EmitSpan(0, i, "flow:"+names[i], true)
		rc.AttachTracer(ctrl, i)
		rc.attachBatcher(batcher, ctrl, i)
		if i < len(s.Profiles) {
			rc.EmitProfile(0, i, s.Profiles[i])
		}
		flows = append(flows, tp.AddFlowOn(main, ctrl, start, 0))
	}
	// Cross traffic after the main flows, so main flow IDs are stable
	// 0..len(mks)-1 regardless of placement.
	idx := len(mks)
	for _, cf := range cross {
		cca := cf.CCA
		if cca == "" {
			cca = "cubic"
		}
		mk, err := MakerFor(cca, nil, nil)
		if err != nil {
			return rc.failedRun(s, len(mks), err) // unreachable after Validate; defensive
		}
		count := cf.Count
		if count == 0 {
			count = 1
		}
		start := time.Duration(cf.StartS * float64(time.Second))
		for k := 0; k < count; k++ {
			ctrl := mk(sweep.SubSeed(rc.Seed, idx))
			rc.AttachTracer(ctrl, idx)
			rc.attachBatcher(batcher, ctrl, idx)
			f := tp.AddFlowOn(routes[cf.Route], ctrl, start, 0)
			if cf.RateMbps > 0 {
				f.SetAppRate(trace.Mbps(cf.RateMbps))
			}
			idx++
		}
	}

	tp.Run(s.Duration)
	rc.recordBatch(batcher)
	for i := range flows {
		rc.EmitSpan(s.Duration.Nanoseconds(), i, "flow:"+names[i], false)
	}
	rc.EmitSpan(s.Duration.Nanoseconds(), -1, "scenario:"+s.Name, false)
	rc.recordLinks(tp, main, s.Duration)
	out = make([]Metrics, len(flows))
	for i, f := range flows {
		out[i] = rc.observe(tp, main, f, s.Duration)
		out[i].Net = n
	}
	return out
}

// Repeat runs the scenario reps times with sub-derived seeds — one
// Sweep job per repetition, so repetitions parallelise across
// rc.Workers — and returns the per-run metrics in repetition order. mk
// is invoked once per job with the job's context so agent-backed
// makers bind the job's private clone (see CCAMaker).
func (rc *RunContext) Repeat(s Scenario, mk func(*RunContext) Maker, reps int) []Metrics {
	return Sweep(rc, reps, func(jc *RunContext, _ int) Metrics {
		return jc.RunFlow(s, mk(jc), 0)
	})
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
