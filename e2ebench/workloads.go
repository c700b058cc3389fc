package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/rl"
	"libra/internal/rlcc"
	"libra/internal/sweep"
	"libra/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// rep runs one untraced repetition through the library entry point.
	rep() outcome
	// simulated runs, when the entry point reports too little (train),
	// a composed pass that must reproduce the given repetition and that
	// the simulated end-to-end outputs are read from. Nil means the
	// repetition itself carries them.
	simulated(first outcome) *outcome
	// traced runs one repetition with per-layer timing under parent.
	traced(rec *recorder, parent *span) outcome
}

// setupInfo breaks set-up time down.
type setupInfo struct {
	modelsNs, tracesNs int64
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name string
	why  string
	// setup builds the workload's inputs from the seed and constructs
	// once, without running, what a repetition builds (network,
	// controllers, agents, sinks), so set-up failures surface before
	// the measured phase.
	setup func(env benchEnv, seed int64) (workload, setupInfo, error)
}

// Run sizes: each repetition takes about one to two host seconds on a
// 2-core x86 machine, so a 10-second run measures several.
const (
	bulkDur       = 5 * time.Second
	mixDur        = 30 * time.Second
	trainSets     = 2
	trainEpisodes = 24
	trainEpLen    = 8 * time.Second
	labSearches   = 6
	labBudget     = 16
	labDurS       = 4
)

var workloadDefs = []workloadDef{
	{
		name:  "bulk-bdp",
		why:   "four window-based flows (cubic, cubic, reno, bbr) fill a 200 Mbps, 100 ms, 1-BDP droptail path: O(window)-per-ACK netem, BBR and sim-heap work, no learning code and no sinks",
		setup: setupBulk,
	},
	{
		name:  "libra-mix",
		why:   "16 learning flows with the shipped agents and profile labels on 96 Mbps / 40 ms with every telemetry sink on: the Libra cycle, RL inference, the batcher and the sinks",
		setup: setupMix,
	},
	{
		name:  "train",
		why:   "quick training of two four-policy agent sets over randomised ~11 Mbps networks: backward passes, Adam and rollout storage in nn/rl, a fresh network per episode, no classic CCA",
		setup: setupTrain,
	},
	{
		name:  "lab-search",
		why:   "six adversarial searches against bbr, 96 fault-injected 4 s evaluations on the sweep pool: per-run set-up, netem/faults, Eq. 1 scoring, sweep scheduling",
		setup: setupLab,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDefs {
		out = append(out, d.name)
	}
	return out
}

// jitter draws flow start offsets from the seed: flow i starts at
// i*step plus up to spread.
func jitter(seed int64, n int, step, spread time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i)*step + time.Duration(rng.Int63n(int64(spread)))
	}
	return out
}

func setupBulk(env benchEnv, seed int64) (workload, setupInfo, error) {
	var si setupInfo
	t0 := nanotime()
	capacity := trace.Constant(trace.Mbps(200))
	si.tracesNs = nanotime() - t0
	w := &flowsWorkload{
		scen: exp.Scenario{
			Name:     "bulk-bdp",
			Capacity: capacity,
			MinRTT:   100 * time.Millisecond,
			Buffer:   2_500_000, // one bandwidth-delay product
			Duration: bulkDur,
		},
		flows:  []flowSpec{{cca: "cubic"}, {cca: "cubic"}, {cca: "reno"}, {cca: "bbr"}},
		starts: jitter(seed, 4, 0, 50*time.Millisecond),
		seed:   seed,
		tmp:    env.tmp,
	}
	return w, si, w.dryBuild()
}

// mixFlows is libra-mix's flow set. The Libra flows carry the preset
// utility profiles (label and Eq. 1 parameters).
var mixFlows = []flowSpec{
	{"c-libra", "bulk"}, {"c-libra", "low-latency"}, {"c-libra", "video-call"},
	{"c-libra", "background"}, {"c-libra", "bulk"}, {"c-libra", "low-latency"},
	{"b-libra", "bulk"}, {"b-libra", "video-call"}, {"b-libra", "background"}, {"b-libra", "low-latency"},
	{"aurora", ""}, {"aurora", ""}, {"mod-rl", ""}, {"mod-rl", ""}, {"orca", ""}, {"orca", ""},
}

func setupMix(env benchEnv, seed int64) (workload, setupInfo, error) {
	var si setupInfo
	t0 := nanotime()
	ag, err := exp.LoadAgentSet(filepath.Join(env.root, "models"), seed)
	si.modelsNs = nanotime() - t0
	if err != nil {
		return nil, si, fmt.Errorf("load agents: %w", err)
	}
	t0 = nanotime()
	capacity := trace.Constant(trace.Mbps(96))
	si.tracesNs = nanotime() - t0
	profiles := make([]string, len(mixFlows))
	for i, f := range mixFlows {
		profiles[i] = f.profile
	}
	w := &flowsWorkload{
		scen: exp.Scenario{
			Name:     "libra-mix",
			Capacity: capacity,
			MinRTT:   40 * time.Millisecond,
			Buffer:   480_000, // one bandwidth-delay product
			Duration: mixDur,
			Profiles: profiles,
		},
		flows:  mixFlows,
		starts: jitter(seed, len(mixFlows), 100*time.Millisecond, 50*time.Millisecond),
		seed:   seed,
		agents: ag,
		sinks:  true,
		tmp:    env.tmp,
	}
	return w, si, w.dryBuild()
}

// dryBuild constructs what exp.RunFlows builds before it runs — the
// network, every flow's controller and, when on, the sinks — and drops
// it.
func (w *flowsWorkload) dryBuild() error {
	mks, err := w.makers(w.agents.Clone(w.seed), nil)
	if err != nil {
		return err
	}
	n := netem.New(netem.Config{Capacity: w.scen.Capacity, MinRTT: w.scen.MinRTT, BufferBytes: w.scen.Buffer, Seed: w.seed})
	for i, mk := range mks {
		n.AddFlow(mk(sweep.SubSeed(w.seed, i)), w.starts[i], 0)
	}
	if !w.sinks {
		return nil
	}
	sk, err := openSinks(w.tmp, nil, nil)
	if err != nil {
		return err
	}
	return sk.close()
}

func (w *flowsWorkload) rep() outcome               { return w.run(w.sinks) }
func (w *flowsWorkload) simulated(outcome) *outcome { return nil }
func (w *flowsWorkload) traced(rec *recorder, parent *span) outcome {
	return w.runTraced(rec, parent, w.sinks)
}

// trainEnv is the training distribution: constant links randomised
// around one operating point (10-12 Mbps, 30-40 ms, about one BDP of
// buffer, 0-2% loss). LaptopEnvRange's decade-wide ranges make a run's
// cost and outputs swing several-fold with the seed; this range, with
// the rate cap, keeps them within a few percent.
func trainEnv() rlcc.EnvRange {
	return rlcc.EnvRange{
		CapacityMbps: [2]float64{10, 12},
		RTT:          [2]time.Duration{30 * time.Millisecond, 40 * time.Millisecond},
		BufferBytes:  [2]int{40_000, 60_000},
		LossRate:     [2]float64{0, 0.02},
	}
}

func setupTrain(env benchEnv, seed int64) (workload, setupInfo, error) {
	var si setupInfo
	w := &trainWorkload{
		seed:     seed,
		sets:     trainSets,
		episodes: trainEpisodes,
		epLen:    trainEpLen,
		env:      trainEnv(),
		maxRate:  trace.Mbps(1.5 * trainEnv().CapacityMbps[1]),
		workers:  env.workers,
	}
	// Training builds a fresh agent per policy and a network per
	// episode.
	for _, j := range w.jobs() {
		c := j.ctrl.WithDefaults()
		rl.NewPPO(j.seed, c.ObsDim(), 1, c.PPO)
		rl.NewRunningNorm(rlcc.StateWidth(c.Features))
	}
	t0 := nanotime()
	capacity := trace.Constant(trace.Mbps(w.env.CapacityMbps[0]))
	si.tracesNs = nanotime() - t0
	netem.New(netem.Config{Capacity: capacity, MinRTT: w.env.RTT[0], BufferBytes: w.env.BufferBytes[0], Seed: seed})
	return w, si, nil
}

func setupLab(env benchEnv, seed int64) (workload, setupInfo, error) {
	var si setupInfo
	w := &labWorkload{
		cfg:      lab.SearchConfig{Target: "bbr", Seed: seed, Budget: labBudget, DurS: labDurS},
		searches: labSearches,
		workers:  env.workers,
	}
	mk, err := exp.MakerFor(w.cfg.Target, nil, nil)
	if err != nil {
		return nil, si, err
	}
	// The first search's screening batch: the clean link and every
	// fault preset.
	base := lab.DefaultSpec(w.cfg.Target, sweep.SubSeed(w.searchConfigs()[0].Seed, 0), labDurS)
	specs := []lab.Spec{base}
	for _, name := range faults.PresetNames() {
		p, _ := faults.Preset(name)
		sp := base
		sp.Plan = p
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, si, err
		}
		t0 := nanotime()
		sc := sp.Scenario()
		si.tracesNs += nanotime() - t0
		if sp.Plan != nil {
			if _, err := faults.New(sp.Plan, sp.Seed); err != nil {
				return nil, si, err
			}
		}
		netem.New(netem.Config{Capacity: sc.Capacity, MinRTT: sc.MinRTT, BufferBytes: sc.Buffer, Seed: sp.Seed}).
			AddFlow(mk(sp.Seed), 0, 0)
	}
	return w, si, nil
}
