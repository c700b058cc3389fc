package rl

import (
	"math"
	"math/rand"

	"libra/internal/nn"
)

// Config holds PPO hyperparameters. Zero values select the defaults in
// DefaultConfig.
type Config struct {
	Gamma      float64 // discount
	Lambda     float64 // GAE lambda
	ClipEps    float64 // surrogate clipping epsilon
	ActorLR    float64
	CriticLR   float64
	Epochs     int // optimisation epochs per update
	MiniBatch  int
	EntCoef    float64
	InitLogStd float64
	Hidden     []int
	ClipNorm   float64 // gradient clipping (0 disables)
}

// DefaultConfig mirrors the common stable-baselines PPO defaults the
// paper's implementation builds on.
func DefaultConfig() Config {
	return Config{
		Gamma:      0.99,
		Lambda:     0.95,
		ClipEps:    0.2,
		ActorLR:    3e-4,
		CriticLR:   1e-3,
		Epochs:     6,
		MiniBatch:  64,
		EntCoef:    0.003,
		InitLogStd: -0.5,
		Hidden:     []int{32, 32},
		ClipNorm:   5,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Gamma == 0 {
		c.Gamma = d.Gamma
	}
	if c.Lambda == 0 {
		c.Lambda = d.Lambda
	}
	if c.ClipEps == 0 {
		c.ClipEps = d.ClipEps
	}
	if c.ActorLR == 0 {
		c.ActorLR = d.ActorLR
	}
	if c.CriticLR == 0 {
		c.CriticLR = d.CriticLR
	}
	if c.Epochs == 0 {
		c.Epochs = d.Epochs
	}
	if c.MiniBatch == 0 {
		c.MiniBatch = d.MiniBatch
	}
	if c.EntCoef == 0 {
		c.EntCoef = d.EntCoef
	}
	if c.InitLogStd == 0 {
		c.InitLogStd = d.InitLogStd
	}
	if c.Hidden == nil {
		c.Hidden = d.Hidden
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = d.ClipNorm
	}
	return c
}

// sample is one stored transition.
type sample struct {
	obs  []float64
	act  []float64
	logp float64
	rew  float64
	val  float64
	done bool
}

// PPO is the agent: Gaussian policy + value network + rollout buffer.
type PPO struct {
	Cfg    Config
	Policy *GaussianPolicy
	Critic *nn.MLP

	actOpt *nn.Adam
	crtOpt *nn.Adam
	buf    []sample
	rng    *rand.Rand
}

// NewPPO builds an agent for the given observation/action dimensions.
func NewPPO(seed int64, obsDim, actDim int, cfg Config) *PPO {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	criticSizes := append([]int{obsDim}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	p := &PPO{
		Cfg:    cfg,
		Policy: NewGaussianPolicy(rng, obsDim, actDim, cfg.Hidden, cfg.InitLogStd),
		Critic: nn.NewMLP(rng, nn.TanhApprox, criticSizes...),
		actOpt: nn.NewAdam(cfg.ActorLR),
		crtOpt: nn.NewAdam(cfg.CriticLR),
		rng:    rng,
	}
	p.actOpt.SetClip(cfg.ClipNorm)
	p.crtOpt.SetClip(cfg.ClipNorm)
	return p
}

// Act samples an action for obs and returns it with its log-probability
// and the critic's value estimate.
func (p *PPO) Act(obs []float64) (act []float64, logp, value float64) {
	act, logp = p.Policy.Sample(obs)
	value = p.Critic.Forward(obs)[0]
	return act, logp, value
}

// MeanBatch evaluates the greedy policy for a batch of observations
// (one per row); row i is bit-identical to Policy.Mean(row i).
func (p *PPO) MeanBatch(X *nn.Matrix) *nn.Matrix {
	return p.Policy.MeanBatch(X)
}

// Store appends a transition to the rollout buffer.
func (p *PPO) Store(obs, act []float64, logp, rew, val float64, done bool) {
	p.buf = append(p.buf, sample{
		obs:  append([]float64(nil), obs...),
		act:  append([]float64(nil), act...),
		logp: logp,
		rew:  rew,
		val:  val,
		done: done,
	})
}

// BufLen returns the number of stored transitions.
func (p *PPO) BufLen() int { return len(p.buf) }

// UpdateStats summarises one Update call.
type UpdateStats struct {
	Samples     int
	PolicyLoss  float64
	ValueLoss   float64
	MeanAdv     float64
	MeanLogStd  float64
	MeanEntropy float64
}

// Update runs PPO optimisation over the buffered rollout and clears the
// buffer. lastValue bootstraps the final transition when the rollout
// was truncated mid-episode.
func (p *PPO) Update(lastValue float64) UpdateStats {
	n := len(p.buf)
	st := UpdateStats{Samples: n}
	if n == 0 {
		return st
	}
	// GAE(lambda) advantages and returns.
	adv := make([]float64, n)
	ret := make([]float64, n)
	nextVal := lastValue
	nextAdv := 0.0
	for i := n - 1; i >= 0; i-- {
		s := &p.buf[i]
		nv, na := nextVal, nextAdv
		if s.done {
			nv, na = 0, 0
		}
		delta := s.rew + p.Cfg.Gamma*nv - s.val
		adv[i] = delta + p.Cfg.Gamma*p.Cfg.Lambda*na
		ret[i] = adv[i] + s.val
		nextVal, nextAdv = s.val, adv[i]
	}
	// Normalise advantages.
	var mean, sq float64
	for _, a := range adv {
		mean += a
	}
	mean /= float64(n)
	for _, a := range adv {
		d := a - mean
		sq += d * d
	}
	std := math.Sqrt(sq/float64(n)) + 1e-8
	for i := range adv {
		adv[i] = (adv[i] - mean) / std
	}
	st.MeanAdv = mean

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	for epoch := 0; epoch < p.Cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for lo := 0; lo < n; lo += p.Cfg.MiniBatch {
			hi := lo + p.Cfg.MiniBatch
			if hi > n {
				hi = n
			}
			batch := idx[lo:hi]
			p.Policy.ZeroGrad()
			p.Critic.ZeroGrad()
			inv := 1.0 / float64(len(batch))
			for _, i := range batch {
				s := &p.buf[i]
				// Policy: clipped surrogate.
				newLogp := p.Policy.LogProb(s.obs, s.act)
				ratio := math.Exp(newLogp - s.logp)
				a := adv[i]
				un := ratio * a
				var cl float64
				if a >= 0 {
					cl = (1 + p.Cfg.ClipEps) * a
				} else {
					cl = (1 - p.Cfg.ClipEps) * a
				}
				if un <= cl {
					// Unclipped branch active: d(-un)/dlogp = -a*ratio.
					p.Policy.BackwardLogProb(s.obs, s.act, inv*(-a*ratio))
				}
				st.PolicyLoss += -math.Min(un, cl)
				// Entropy bonus.
				p.Policy.BackwardEntropy(inv * (-p.Cfg.EntCoef))

				// Critic: 0.5 * (v - ret)^2.
				v := p.Critic.Forward(s.obs)[0]
				p.Critic.Backward([]float64{inv * (v - ret[i])})
				st.ValueLoss += 0.5 * (v - ret[i]) * (v - ret[i])
			}
			p.actOpt.Step(p.Policy.Params(), p.Policy.Grads())
			p.crtOpt.Step(p.Critic.Params(), p.Critic.Grads())
		}
	}
	denom := float64(n * p.Cfg.Epochs)
	st.PolicyLoss /= denom
	st.ValueLoss /= denom
	for _, ls := range p.Policy.LogStd {
		st.MeanLogStd += ls
	}
	st.MeanLogStd /= float64(len(p.Policy.LogStd))
	st.MeanEntropy = p.Policy.Entropy()
	p.buf = p.buf[:0]
	return st
}

// Clone returns an independent copy of the agent for concurrent
// inference: policy and critic weights are deep-copied, optimiser
// state and the rollout buffer start fresh, and the sampling RNG is
// reseeded from seed (math/rand sources cannot be copied, so the
// clone's action noise is a deterministic function of seed rather
// than a continuation of the parent's stream).
func (p *PPO) Clone(seed int64) *PPO {
	rng := rand.New(rand.NewSource(seed))
	out := &PPO{
		Cfg:    p.Cfg,
		Policy: p.Policy.clone(rng),
		Critic: p.Critic.Clone(),
		actOpt: nn.NewAdam(p.Cfg.ActorLR),
		crtOpt: nn.NewAdam(p.Cfg.CriticLR),
		rng:    rng,
	}
	out.actOpt.SetClip(p.Cfg.ClipNorm)
	out.crtOpt.SetClip(p.Cfg.ClipNorm)
	return out
}

// MemBytes estimates the resident memory of the agent's models
// (weights in float64), the overhead-accounting input of Fig. 2(c).
func (p *PPO) MemBytes() int {
	return 8 * (p.Policy.Actor.NumParams() + p.Critic.NumParams() + 2*len(p.Policy.LogStd))
}
