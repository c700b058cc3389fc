package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"libra/internal/cc"
	"libra/internal/core"
	"libra/internal/netem"
	"libra/internal/trace"
)

// mss is the packet size every workload runs with (netem's default).
const mss = cc.DefaultMSS

// flowResult is one simulated flow's output, as the layers report it.
type flowResult struct {
	Name        string
	Acked, Lost int64
	RTTSum      time.Duration
	RTTCount    int64
	Active      time.Duration
	// CapBytes is capacity × duration of the path the flow ran on, the
	// most it could have delivered.
	CapBytes float64
}

func (f flowResult) goodputMbps() float64 {
	if f.Active <= 0 {
		return 0
	}
	return float64(f.Acked) * 8 / f.Active.Seconds() / 1e6
}

// outcome is what one repetition of a workload produced.
type outcome struct {
	// WallNs is the host time of the repetition's measured work.
	WallNs int64
	// Ops and FailedOps count flow runs, episodes or evaluations.
	Ops, FailedOps int
	// Flows feed the simulated end-to-end outputs.
	Flows []flowResult
	// Pkts is the number of simulated packets delivered.
	Pkts int64
	// Fingerprint hashes the simulated results (see hasher).
	Fingerprint string
	// Telemetry digests what the sinks wrote (libra-mix only); it must
	// repeat exactly across repetitions and between traced and
	// untraced runs.
	Telemetry string
	// Problems lists output-check failures.
	Problems []string
	// Summary overrides the simulated outputs derived from Flows
	// (lab-search reads them from the merged metrics registry).
	Summary *simSummary
	// Info is printed, not measured: rewards, batch stats, the lab's
	// discovered case.
	Info map[string]float64
	// Trace holds the per-layer facts of a traced repetition.
	Trace *traceFacts
}

// hasher builds a fingerprint from simulated values. Floats are hashed
// by their bits, so the fingerprint changes on any difference at all.
type hasher struct{ b []byte }

func (h *hasher) i64(v int64) {
	h.b = binary.LittleEndian.AppendUint64(h.b, uint64(v))
}
func (h *hasher) f64(v float64) { h.i64(int64(math.Float64bits(v))) }
func (h *hasher) str(s string)  { h.b = append(append(h.b, s...), 0) }

func (h *hasher) sum() string {
	s := sha256.Sum256(h.b)
	return hex.EncodeToString(s[:8])
}

func (h *hasher) flow(f *netem.Flow) {
	st := &f.Stats
	h.i64(st.AckedBytes)
	h.i64(st.LostBytes)
	h.i64(st.SentBytes)
	h.i64(int64(st.RTTSum))
	h.i64(st.RTTCount)
}

// cycles hashes a Libra controller's cycle winners.
func (h *hasher) cycles(l *core.Libra) {
	for _, r := range l.CycleLog() {
		h.i64(int64(r.Winner))
		h.f64(r.XPrev)
	}
}

// flowOf converts a finished flow into a result.
func flowOf(name string, f *netem.Flow, capacity trace.Trace, d time.Duration) flowResult {
	st := f.Stats
	return flowResult{
		Name: name, Acked: st.AckedBytes, Lost: st.LostBytes,
		RTTSum: st.RTTSum, RTTCount: st.RTTCount, Active: st.Active,
		CapBytes: trace.MeanRate(capacity, d, 10*time.Millisecond) * d.Seconds(),
	}
}

// checkFlows applies the output checks every flow must pass: finite
// stats, non-zero goodput, and no more bytes delivered than the path
// could carry.
func checkFlows(fs []flowResult) []string {
	var out []string
	for i, f := range fs {
		g := f.goodputMbps()
		switch {
		case math.IsNaN(g) || math.IsInf(g, 0):
			out = append(out, fmt.Sprintf("flow %d (%s): non-finite goodput", i, f.Name))
		case f.Acked <= 0:
			out = append(out, fmt.Sprintf("flow %d (%s): zero goodput", i, f.Name))
		case f.CapBytes > 0 && float64(f.Acked) > f.CapBytes*1.0001:
			out = append(out, fmt.Sprintf("flow %d (%s): delivered %d B above capacity %.0f B", i, f.Name, f.Acked, f.CapBytes))
		}
		if f.RTTCount > 0 && f.RTTSum <= 0 {
			out = append(out, fmt.Sprintf("flow %d (%s): non-positive RTT sum", i, f.Name))
		}
	}
	return out
}

// simSummary is the simulated end-to-end output of one repetition.
type simSummary struct {
	GoodputMbps float64 // mean per-flow goodput
	RTTMs       float64 // byte-weighted mean RTT
	LossPct     float64 // lost / (acked + lost) bytes
	Jain        float64 // Jain's index over per-flow goodput
}

func summarize(fs []flowResult) simSummary {
	var s simSummary
	var acked, lost, rttW, wsum, sum, sq float64
	for _, f := range fs {
		g := f.goodputMbps()
		sum += g
		sq += g * g
		acked += float64(f.Acked)
		lost += float64(f.Lost)
		if f.RTTCount > 0 {
			rttW += float64(f.Acked) * float64(f.RTTSum) / float64(f.RTTCount)
			wsum += float64(f.Acked)
		}
	}
	if n := float64(len(fs)); n > 0 {
		s.GoodputMbps = sum / n
		if sq > 0 {
			s.Jain = sum * sum / (n * sq)
		}
	}
	if wsum > 0 {
		s.RTTMs = rttW / wsum / float64(time.Millisecond)
	}
	if acked+lost > 0 {
		s.LossPct = 100 * lost / (acked + lost)
	}
	return s
}

func (s simSummary) finite() bool {
	for _, v := range []float64{s.GoodputMbps, s.RTTMs, s.LossPct, s.Jain} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
