package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"libra/internal/cc"
	"libra/internal/netem"
	"libra/internal/rl"
	"libra/internal/rlcc"
	"libra/internal/sweep"
	"libra/internal/trace"
)

// trainWorkload trains the four-policy agent set: exp.TrainAgentSet's
// jobs on the sweep pool, each one rlcc.Train call. Repetitions call
// rlcc.Train, which reports the trained agents and episode rewards; the
// episode-level network outputs (packets, goodput) come from compose,
// which runs the same training from the same public calls and must
// reproduce the library's agents and rewards bit for bit.
type trainWorkload struct {
	seed int64
	// sets is how many independent four-policy sets a repetition
	// trains; one policy's learning path, and so its cost, swings with
	// its seed, and several even it out.
	sets     int
	episodes int
	epLen    time.Duration
	env      rlcc.EnvRange
	// maxRate caps every policy's sending rate (bytes/s), so an
	// untrained policy cannot flood the emulator with packets the link
	// will drop: without it the cost of a run varies several-fold with
	// the seed.
	maxRate float64
	workers int
}

// trainJob is one policy of the set, as exp.TrainAgentSet lists them.
type trainJob struct {
	ctrl rlcc.Config
	seed int64
}

// jobs lists every policy of every set. Set k trains from the sub-seed
// sweep.SubSeed(seed, k) exactly as exp.TrainAgentSet trains one set
// from its spec seed.
func (w *trainWorkload) jobs() []trainJob {
	var out []trainJob
	for k := 0; k < w.sets; k++ {
		s := sweep.SubSeed(w.seed, k)
		base := cc.Config{Seed: s, MaxRate: w.maxRate}
		out = append(out,
			trainJob{rlcc.LibraRLConfig(base), s + 1},
			trainJob{rlcc.OrcaRLConfig(base), s + 2},
			trainJob{rlcc.AuroraConfig(base), s + 3},
			trainJob{rlcc.LibraRLConfig(base), s + 4},
		)
	}
	return out
}

func (w *trainWorkload) ops() int { return len(w.jobs()) * w.episodes }

func (w *trainWorkload) poolWidth() int {
	return min(sweep.Workers(w.workers), len(w.jobs()))
}

func (w *trainWorkload) rep() outcome {
	jobs := w.jobs()
	t0 := nanotime()
	res := sweep.Map(w.workers, len(jobs), func(i int) rlcc.TrainResult {
		env := w.env // private copy per concurrent trainer
		return rlcc.Train(rlcc.TrainConfig{
			Episodes:   w.episodes,
			EpisodeLen: w.epLen,
			Env:        &env,
			Ctrl:       jobs[i].ctrl,
			Seed:       jobs[i].seed,
		})
	})
	wall := nanotime() - t0
	o := outcome{WallNs: wall, Ops: w.ops(), Info: map[string]float64{}}
	agents := make([]*rl.PPO, len(res))
	norms := make([]*rl.RunningNorm, len(res))
	rewards := make([][]float64, len(res))
	for i, r := range res {
		agents[i], norms[i], rewards[i] = r.Agent, r.Norm, r.Rewards
	}
	w.finish(&o, agents, norms, rewards)
	return o
}

// finish fingerprints the trained agents and their episode rewards and
// checks them.
func (w *trainWorkload) finish(o *outcome, agents []*rl.PPO, norms []*rl.RunningNorm, rewards [][]float64) {
	var err error
	o.Fingerprint, err = agentsFingerprint(agents, norms, rewards)
	if err != nil {
		o.Problems = append(o.Problems, err.Error())
	}
	var last []float64
	for _, r := range rewards {
		n := (len(r) + 9) / 10
		last = append(last, r[len(r)-n:]...)
	}
	o.Info["reward"] = mean(last)
	if math.IsNaN(o.Info["reward"]) || math.IsInf(o.Info["reward"], 0) {
		o.Problems = append(o.Problems, "non-finite episode reward")
	}
	if len(o.Problems) > 0 {
		o.FailedOps = o.Ops
	}
}

// simulated runs compose and checks it reproduced the library's
// agents.
func (w *trainWorkload) simulated(lib outcome) *outcome {
	o := w.compose(nil, nil)
	if o.Fingerprint != lib.Fingerprint {
		o.Problems = append(o.Problems, fmt.Sprintf("composed training fingerprint %s differs from rlcc.Train's %s", o.Fingerprint, lib.Fingerprint))
		o.FailedOps = o.Ops
	}
	return &o
}

func (w *trainWorkload) traced(rec *recorder, parent *span) outcome { return w.compose(rec, parent) }

// trained is one policy's result.
type trained struct {
	agent   *rl.PPO
	norm    *rl.RunningNorm
	flows   []flowResult
	rewards []float64
	set     *counters
	facts   traceFacts
}

// compose trains the set the way exp.TrainAgentSet does — one job per
// policy on the sweep pool, each running the rlcc.Train episode loop —
// from the public calls the loop makes: netem.New, rlcc.New, AddFlow,
// Run and PPO.Update. With a recorder it times each episode, its Run
// and its Update, and wraps the training controller.
func (w *trainWorkload) compose(rec *recorder, parent *span) outcome {
	jobs := w.jobs()
	var pool *span
	if rec != nil {
		pool = rec.begin(parent, "sweep:train", "sweep", nil)
		pool.Workers = w.poolWidth()
	}
	t0 := nanotime()
	res := sweep.Map(w.workers, len(jobs), func(i int) trained {
		return w.trainOne(jobs[i], rec, pool)
	})
	wall := nanotime() - t0
	if rec != nil {
		rec.end(pool)
	}
	o := outcome{WallNs: wall, Ops: w.ops(), Info: map[string]float64{}}
	facts := &traceFacts{}
	agents := make([]*rl.PPO, len(res))
	norms := make([]*rl.RunningNorm, len(res))
	rewards := make([][]float64, len(res))
	for i, r := range res {
		o.Flows = append(o.Flows, r.flows...)
		agents[i], norms[i], rewards[i] = r.agent, r.norm, r.rewards
		facts.add(&r.facts)
		facts.sets = append(facts.sets, r.set)
	}
	for _, f := range o.Flows {
		o.Pkts += f.Acked / mss
	}
	o.Problems = append(o.Problems, checkFlows(o.Flows)...)
	w.finish(&o, agents, norms, rewards)
	if rec != nil {
		facts.pkts = o.Pkts
		o.Trace = facts
	}
	return o
}

// trainOne is rlcc.Train's loop for one policy, call for call.
func (w *trainWorkload) trainOne(job trainJob, rec *recorder, pool *span) trained {
	env := w.env
	seed := job.seed
	rng := rand.New(rand.NewSource(seed))
	ctrlCfg := job.ctrl.WithDefaults()
	ctrlCfg.Train = true
	agent := ctrlCfg.Agent
	if agent == nil {
		agent = rl.NewPPO(seed, ctrlCfg.ObsDim(), 1, ctrlCfg.PPO)
		ctrlCfg.Agent = agent
	}
	if ctrlCfg.Norm == nil {
		ctrlCfg.Norm = rl.NewRunningNorm(rlcc.StateWidth(ctrlCfg.Features))
	}
	out := trained{agent: agent, norm: ctrlCfg.Norm}
	var jobSpan *span
	if rec != nil {
		out.set = &counters{}
		jobSpan = rec.begin(pool, "train:policy", "exp", out.set)
	}
	epLen := w.epLen
	for ep := 0; ep < w.episodes; ep++ {
		var epSpan *span
		if rec != nil {
			epSpan = rec.begin(jobSpan, "episode", "exp", out.set)
		}
		capMbps := env.CapacityMbps[0] + rng.Float64()*(env.CapacityMbps[1]-env.CapacityMbps[0])
		rtt := env.RTT[0] + time.Duration(rng.Int63n(int64(env.RTT[1]-env.RTT[0]+1)))
		buf := env.BufferBytes[0] + rng.Intn(env.BufferBytes[1]-env.BufferBytes[0]+1)
		loss := env.LossRate[0] + rng.Float64()*(env.LossRate[1]-env.LossRate[0])
		var capTrace trace.Trace = trace.Constant(trace.Mbps(capMbps))
		if rng.Float64() < env.CellularFraction {
			sc := trace.LTEScenario(rng.Intn(3))
			capTrace = trace.NewLTE(sc, epLen, rng.Int63())
		}
		n := netem.New(netem.Config{
			Capacity:    capTrace,
			MinRTT:      rtt,
			BufferBytes: buf,
			LossRate:    loss,
			Seed:        rng.Int63(),
		})
		epCfg := ctrlCfg
		epCfg.CC.Seed = rng.Int63()
		mean := trace.MeanRate(capTrace, epLen, 100*time.Millisecond)
		epCfg.CC.InitialRate = (0.05 + 1.3*rng.Float64()) * mean
		ctrl := rlcc.New("rl-train", epCfg)
		var flow *netem.Flow
		if rec == nil {
			flow = n.AddFlow(ctrl, 0, 0)
			n.Run(epLen)
			agent.Update(0)
		} else {
			wrapped, err := wrapController(ctrl, &out.set.rollout, out.set, false)
			if err != nil {
				panic(err)
			}
			out.set.eng = n.Eng
			flow = n.AddFlow(wrapped, 0, 0)
			run := rec.begin(epSpan, "netem.Run", "netem", out.set)
			n.Run(epLen)
			rec.end(run)
			upd := rec.begin(epSpan, "PPO.Update", "rl.update", out.set)
			st := agent.Update(0)
			rec.end(upd)
			_, events, pending := n.Eng.Progress()
			f := &out.facts
			f.simEvents += events
			f.pendingMax = max(f.pendingMax, out.set.pendingMax, pending)
			f.drops += n.Link().DropStats().Total()
			f.updates++
			f.updateSamples += int64(st.Samples)
			f.runs++
			out.set.eng = nil
			rec.end(epSpan)
		}
		out.rewards = append(out.rewards, ctrl.EpisodeRawReward())
		out.flows = append(out.flows, flowOf("rl-train", flow, capTrace, epLen))
	}
	if rec != nil {
		rec.end(jobSpan)
	}
	return out
}

// agentsFingerprint hashes the trained actors (weights and log-std),
// their normalisers and the episode rewards, failing on any non-finite
// weight.
func agentsFingerprint(agents []*rl.PPO, norms []*rl.RunningNorm, rewards [][]float64) (string, error) {
	var h hasher
	for _, r := range rewards {
		for _, v := range r {
			h.f64(v)
		}
	}
	for i, a := range agents {
		for _, m := range a.Policy.Params() {
			for _, v := range m.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return h.sum(), fmt.Errorf("agent %d: non-finite weight", i)
				}
				h.f64(v)
			}
		}
		if n := norms[i]; n != nil {
			var b normBuf
			if err := n.Save(&b); err != nil {
				return h.sum(), err
			}
			h.str(string(b))
		}
	}
	return h.sum(), nil
}

type normBuf []byte

func (b *normBuf) Write(p []byte) (int, error) { *b = append(*b, p...); return len(p), nil }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
