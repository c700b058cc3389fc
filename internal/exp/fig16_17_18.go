package exp

import (
	"math"
	"time"

	"libra/internal/cc"
	"libra/internal/core"
	"libra/internal/trace"
	"libra/internal/utility"
)

func init() {
	Register(Experiment{
		ID:    "fig16",
		Title: "Live-Internet-like WAN scenarios (inter/intra-continental)",
		Paper: "Inter-continental: Orca and CUBIC drop throughput sharply (stochastic loss, unknown shaping); C-Libra +6% thr (Th) or -14.4% delay (La) vs BBR; intra-continental all closer",
		Run:   runFig16,
	})
	Register(Experiment{
		ID:    "fig17",
		Title: "Fraction of control cycles won by x_prev / x_rl / x_cl",
		Paper: "C-Libra averages 32%/26%/42% (prev/rl/cl); B-Libra 23%/27%/50%; x_cl wins least on wired for CUBIC",
		Run:   runFig17,
	})
	Register(Experiment{
		ID:    "fig18",
		Title: "Libra vs offline ideal combination (normalised utility over time)",
		Paper: "C/B-Libra approach and sometimes surpass the per-interval max of their components run alone",
		Run:   runFig18,
	})
}

// wanScenario models the EC2 paths: long RTT, background stochastic
// loss, and unresponsive cross traffic (the shaping/competition the
// endpoints cannot see).
func wanScenario(kind string, d time.Duration, seed int64) (Scenario, float64) {
	switch kind {
	case "inter":
		return Scenario{
			Name:     "inter-continental",
			Capacity: trace.Constant(trace.Mbps(50)),
			MinRTT:   180 * time.Millisecond,
			Buffer:   600_000,
			Loss:     0.01,
			Duration: d,
		}, trace.Mbps(10) // cross traffic
	default:
		return Scenario{
			Name:     "intra-continental",
			Capacity: trace.Constant(trace.Mbps(50)),
			MinRTT:   40 * time.Millisecond,
			Buffer:   300_000,
			Loss:     0.001,
			Duration: d,
		}, trace.Mbps(5)
	}
}

func runFig16(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	ccas := []string{"c-libra", "b-libra", "proteus", "bbr", "cubic", "orca"}

	run := func(kind string) Table {
		s, cross := wanScenario(kind, dur, rc.Seed)
		type r struct{ thr, delay, loss float64 }
		// Normalisation needs the whole CCA set, so it follows the sweep.
		res := Sweep(rc, len(ccas), func(jc *RunContext, i int) r {
			ms := jc.RunFlows(s, []Maker{mustMaker(ccas[i], jc.agents(), nil), func(seed int64) cc.Controller {
				return cc.FixedRate{R: cross}
			}}, []time.Duration{0, 0}, 0)
			return r{ms[0].ThrMbps, ms[0].DelayMs, ms[0].LossRate}
		})
		tbl := Table{Name: kind + "-continental", Cols: []string{"cca", "norm.thr", "norm.delay", "loss"}}
		var bestThr, minDelay float64
		minDelay = math.Inf(1)
		for _, v := range res {
			if v.thr > bestThr {
				bestThr = v.thr
			}
			if v.delay < minDelay {
				minDelay = v.delay
			}
		}
		for i, name := range ccas {
			v := res[i]
			tbl.AddRow(name, fmtF(v.thr/bestThr, 3), fmtF(v.delay/minDelay, 3), fmtF(v.loss, 4))
		}
		return tbl
	}
	return &Report{ID: "fig16", Title: "WAN performance",
		Tables: []Table{run("inter"), run("intra")},
		Notes:  []string{"cross traffic: unresponsive CBR flow sharing the bottleneck (substitute for unknown WAN competition)"}}
}

func runFig17(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	reps := 10
	if rc.Quick {
		dur = 15 * time.Second
		reps = 3
	}

	scens := map[string]func(seed int64) Scenario{
		"step": func(seed int64) Scenario { return stepScenario(dur) },
		"cellular": func(seed int64) Scenario {
			return Scenario{Capacity: trace.NewLTE(trace.LTEWalking, dur, seed),
				MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		},
		"wired": func(seed int64) Scenario {
			return Scenario{Capacity: trace.Constant(trace.Mbps(48)),
				MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		},
	}
	order := []string{"step", "cellular", "wired"}
	libras := []string{"c-libra", "b-libra"}

	fracs := Sweep(rc, len(libras)*len(order)*reps, func(jc *RunContext, i int) [3]float64 {
		li := i / (len(order) * reps)
		si := i / reps % len(order)
		m := jc.RunFlow(scens[order[si]](jc.Seed), mustMaker(libras[li], jc.agents(), nil), 0)
		lb := m.Ctrl.(*core.Libra)
		tel := lb.Telemetry()
		var f [3]float64
		for c := core.CandPrev; c <= core.CandRL; c++ {
			f[c] = tel.Fraction(c)
		}
		return f
	})

	tbl := Table{Name: "fraction of applied decisions",
		Cols: []string{"libra", "scenario", "x_prev", "x_rl", "x_cl"}}
	for li, lname := range libras {
		for si, sn := range order {
			var frac [3]float64
			for rp := 0; rp < reps; rp++ {
				f := fracs[(li*len(order)+si)*reps+rp]
				for c := range frac {
					frac[c] += f[c]
				}
			}
			tbl.AddRow(lname, sn,
				fmtF(frac[core.CandPrev]/float64(reps), 2),
				fmtF(frac[core.CandRL]/float64(reps), 2),
				fmtF(frac[core.CandClassic]/float64(reps), 2))
		}
	}
	return &Report{ID: "fig17", Title: "Decision-source fractions", Tables: []Table{tbl}}
}

func runFig18(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 50 * time.Second
	if rc.Quick {
		dur = 20 * time.Second
	}
	u := utility.Default()

	// Per-second utility of a standalone run (one sweep job per CCA).
	names := []string{"c-libra", "cubic", "b-libra", "bbr", "cl-libra"}
	series := Sweep(rc, len(names), func(jc *RunContext, i int) []float64 {
		s := Scenario{Capacity: trace.NewLTE(trace.LTEWalking, dur, rc.Seed+7),
			MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		m := jc.RunFlow(s, mustMaker(names[i], jc.agents(), nil), time.Second)
		return m.Utilities(u, int(dur/time.Second), 0)
	})
	bySeries := map[string][]float64{}
	for i, n := range names {
		bySeries[n] = series[i]
	}

	mkTable := func(tag, libraName, classicName string) Table {
		libra := bySeries[libraName]
		classic := bySeries[classicName]
		clean := bySeries["cl-libra"]
		// Normalise all three jointly.
		var norm utility.Normalizer
		for _, s := range [][]float64{libra, classic, clean} {
			for _, v := range s {
				norm.Observe(v)
			}
		}
		tbl := Table{Name: tag, Cols: []string{"t(s)", libraName, tag + "-ideal(max of components)"}}
		var libraWins int
		for t := range libra {
			ideal := math.Max(classic[t], clean[t])
			if libra[t] >= ideal {
				libraWins++
			}
			tbl.AddRow(fmtF(float64(t), 0), fmtF(norm.Norm(libra[t]), 2), fmtF(norm.Norm(ideal), 2))
		}
		return tbl
	}

	return &Report{ID: "fig18", Title: "Libra vs offline ideal combination",
		Tables: []Table{mkTable("C", "c-libra", "cubic"), mkTable("B", "b-libra", "bbr")},
		Notes:  []string{"ideal = per-second max utility of the classic CCA and Clean-Slate Libra run individually (offline combination, no interaction)"}}
}
