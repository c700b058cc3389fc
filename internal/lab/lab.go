package lab

import (
	"time"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/telemetry"
	"libra/internal/utility"
)

// FailScore is the finite sentinel a failed evaluation scores: bad
// enough that no healthy run loses to it, finite so artifacts stay
// JSON-encodable (the encoder rejects ±Inf).
const FailScore = -1e6

// Outcome is one evaluated scenario: the spec that produced it, its
// Eq. 1 score, summary stats for the target flow, and the anomaly
// counts the analyzer attributed to it.
type Outcome struct {
	Spec     Spec    `json:"spec"`
	Score    float64 `json:"score"`
	Failed   bool    `json:"failed,omitempty"`
	ThrMbps  float64 `json:"thr_mbps"`
	DelayMs  float64 `json:"delay_ms"`
	LossRate float64 `json:"loss_rate"`
	// Anomalies counts the target flow's collapses, utility
	// regressions, and no-ACK episodes flagged by the analyzer.
	Anomalies int64 `json:"anomalies"`

	// an is the evaluation's analyzer, kept for tournament merging.
	an *analyze.Analyzer
}

// Eval runs one scenario in the given (job) context and scores the
// target flow. The context is reseeded to the spec's own seed first,
// so a spec evaluates identically wherever it lands in a sweep batch —
// the objective depends on the scenario, never on the job index. The
// run feeds a private analyzer (tapped off the job tracer), and the
// score is the mean per-second Eq. 1 utility of the target flow, the
// same formula the fig. 18 experiment uses, so it is comparable across
// every CCA rather than only the Libra family.
func Eval(jc *exp.RunContext, sp Spec, u utility.Libra) Outcome {
	jc.Metrics.Counter("libra_lab_evals_total", "lab scenario evaluations").Inc()
	out := Outcome{Spec: sp, Score: FailScore}
	if err := sp.Validate(); err != nil {
		out.Failed = true
		return out
	}
	jc.Reseed(sp.Seed)

	an := analyze.New(analyze.Config{Util: u})
	saved := jc.Tracer
	jc.Tracer = telemetry.Multi(saved, an)
	defer func() { jc.Tracer = saved }()

	mks := make([]exp.Maker, 0, 1+sp.Cross)
	mks = append(mks, exp.CCAMaker(sp.Target, u)(jc))
	// With a topology, cross flows ride their own routes via the spec's
	// CrossAt placement; without one they share the single bottleneck.
	if sp.Topo == "" {
		for c := 0; c < sp.Cross; c++ {
			mks = append(mks, exp.CCAMaker("cubic", nil)(jc))
		}
	}
	ms := jc.RunFlows(sp.Scenario(), mks, nil, time.Second)

	an.Finalize()
	out.an = an
	m := ms[0]
	if m.Failed {
		out.Failed = true
		return out
	}
	out.Score = score(m, u, int(sp.DurS))
	out.ThrMbps = m.ThrMbps
	out.DelayMs = m.DelayMs
	out.LossRate = m.LossRate
	for _, fr := range an.Report().Flows {
		if fr.ID == 0 {
			out.Anomalies = fr.Collapses + fr.Regressions + fr.NoAckEpisodes
		}
	}
	return out
}

// score is the cross-CCA objective: mean per-second Eq. 1 utility of
// the target flow, from its recorded throughput/delay series (per-
// second latency gradient, run loss rate in every term).
func score(m exp.Metrics, u utility.Libra, seconds int) float64 {
	seconds = max(seconds, 1)
	sum := 0.0
	for _, v := range m.Utilities(u, seconds, m.LossRate) {
		sum += v
	}
	return sum / float64(seconds)
}

// Replay re-runs a (discovered or loaded) spec on a top-level context
// with full telemetry attached and, when mark is set, emits a
// lab_worst_case anomaly at end-of-run so an attached flight recorder
// dumps the forensic ring for the scenario.
func Replay(rc *exp.RunContext, sp Spec, u utility.Libra, mark bool) Outcome {
	out := Eval(rc, sp, u)
	if mark {
		rc.EmitAnomaly(int64(sp.DurS*float64(time.Second)), 0, telemetry.AnomalyLabWorst)
	}
	return out
}
