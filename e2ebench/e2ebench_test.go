package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// The self-tests run the benchmark's own logic at tiny sizes.

func tinyBulk(t *testing.T) *flowsWorkload {
	t.Helper()
	w, _, err := setupBulk(benchEnv{tmp: t.TempDir(), workers: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fw := w.(*flowsWorkload)
	fw.scen.Duration = 400 * time.Millisecond
	return fw
}

func tinyMix(t *testing.T) *flowsWorkload {
	t.Helper()
	w, _, err := setupMix(benchEnv{root: "..", tmp: t.TempDir(), workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw := w.(*flowsWorkload)
	fw.scen.Duration = 2 * time.Second
	return fw
}

func tinyTrain() *trainWorkload {
	return &trainWorkload{seed: 9, sets: 1, episodes: 2, epLen: 500 * time.Millisecond, env: trainEnv(),
		maxRate: trace.Mbps(32), workers: 2}
}

func tinyLab() *labWorkload {
	return &labWorkload{cfg: lab.SearchConfig{Target: "bbr", Seed: 4, Budget: 1, DurS: 1}, searches: 2, workers: 2}
}

func TestFingerprintDeterministic(t *testing.T) {
	for name, w := range map[string]workload{"bulk": tinyBulk(t), "lab": tinyLab(), "train": tinyTrain()} {
		a, b := w.rep(), w.rep()
		if len(a.Problems) > 0 || a.FailedOps > 0 {
			t.Fatalf("%s: problems %v", name, a.Problems)
		}
		if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: fingerprints %q and %q differ", name, a.Fingerprint, b.Fingerprint)
		}
	}
}

func TestHeldOutSeedDiffers(t *testing.T) {
	a := tinyBulk(t)
	w, _, err := setupBulk(benchEnv{tmp: t.TempDir()}, heldOut(a.seed))
	if err != nil {
		t.Fatal(err)
	}
	b := w.(*flowsWorkload)
	b.scen.Duration = a.scen.Duration
	ra, rb := a.rep(), b.rep()
	if len(rb.Problems) > 0 {
		t.Fatalf("held-out seed: %v", rb.Problems)
	}
	if ra.Fingerprint == rb.Fingerprint {
		t.Errorf("seeds %d and %d gave the same fingerprint %s", a.seed, b.seed, ra.Fingerprint)
	}
}

// TestComposedTrainingMatchesLibrary: the composed pass must reproduce
// rlcc.Train, or the train workload's episode outputs describe
// some other training.
func TestComposedTrainingMatchesLibrary(t *testing.T) {
	w := tinyTrain()
	lib := w.rep()
	p := w.simulated(lib)
	if p == nil || len(p.Problems) > 0 || p.FailedOps > 0 {
		t.Fatalf("composed pass: %+v", p)
	}
	if len(p.Flows) != w.ops() || p.Pkts == 0 {
		t.Errorf("composed pass reported %d flows, %d packets", len(p.Flows), p.Pkts)
	}
}

// panicky is a controller that fails on its first ACK.
type panicky struct{ *cubic.Cubic }

func (panicky) OnAck(*cc.Ack) { panic("injected controller failure") }

func TestPanickingControllerCounted(t *testing.T) {
	w := tinyBulk(t)
	w.override = func(seed int64) cc.Controller { return panicky{cubic.New(cc.Config{Seed: seed})} }
	res := result{Metrics: map[string]metric{}}
	tl := &tally{res: &res}
	tl.add("untraced", w.rep(), true)
	rec := &recorder{}
	root := rec.begin(nil, "workload", "other", nil)
	tl.add("traced", w.traced(rec, root), false)
	if res.Attempted != 2*len(w.flows) || res.Failed != res.Attempted {
		t.Errorf("attempted %d failed %d, want every flow of both runs failed", res.Attempted, res.Failed)
	}
}

func TestAccountingCloses(t *testing.T) {
	for name, w := range map[string]workload{"mix": tinyMix(t), "train": tinyTrain(), "lab": tinyLab()} {
		tr := runTraced(w, name)
		if len(tr.o.Problems) > 0 {
			t.Fatalf("%s: %v", name, tr.o.Problems)
		}
		var sum int64
		for _, v := range tr.attr.Self {
			sum += v
		}
		if sum != tr.attr.Capacity || len(tr.attr.Negative) > 0 {
			t.Errorf("%s: self times sum to %d of capacity %d; negative: %v", name, sum, tr.attr.Capacity, tr.attr.Negative)
		}
		if acc := layerMetrics(tr, setupInfo{})["accounted_frac"].Value; acc < 1-closureTol {
			t.Errorf("%s: layers cover %.4f of capacity", name, acc)
		}
	}
}

// TestTracedMatchesUntraced: the decorated run must simulate exactly
// what the library run does, down to the telemetry the sinks write.
func TestTracedMatchesUntraced(t *testing.T) {
	w := tinyMix(t)
	u := w.rep()
	tr := runTraced(w, "libra-mix")
	off := w.run(false)
	if u.Fingerprint != tr.o.Fingerprint || u.Telemetry != tr.o.Telemetry {
		t.Errorf("traced %s/%s, untraced %s/%s", tr.o.Fingerprint, tr.o.Telemetry, u.Fingerprint, u.Telemetry)
	}
	if off.Fingerprint != u.Fingerprint {
		t.Errorf("sinks off changed the simulation: %s vs %s", off.Fingerprint, u.Fingerprint)
	}
	m := layerMetrics(tr, setupInfo{})
	for _, k := range []string{"core.ns", "rlcc.ns", "cc.ns", "telemetry.recorder_ns", "analyze.feed_ns", "core.cycles"} {
		if m[k].Value <= 0 {
			t.Errorf("%s reads %g on libra-mix", k, m[k].Value)
		}
	}
}

// TestDecoratorsForwardInterfaces: a wrapped controller exposes exactly
// the optional interfaces the layers probe for.
func TestDecoratorsForwardInterfaces(t *testing.T) {
	ag, err := exp.LoadAgentSet("../models", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cubic", "reno", "bbr", "c-libra", "b-libra", "aurora", "mod-rl", "orca"} {
		mk, err := exp.MakerFor(name, ag, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := mk(1)
		set := &counters{}
		out, err := wrapController(in, &set.cc, set, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probe := func(c cc.Controller) [4]bool {
			_, tick := c.(cc.Ticker)
			_, stop := c.(cc.Stopper)
			_, mem := c.(interface{ MemBytes() int })
			_, own := c.(interface{ SharesAgent() bool })
			return [4]bool{tick, stop, mem, own}
		}
		if probe(in) != probe(out) {
			t.Errorf("%s: wrapped interfaces %v, want %v", name, probe(out), probe(in))
		}
		if _, ok := in.(telemetry.Traceable); ok {
			if _, ok := out.(telemetry.Traceable); !ok {
				t.Errorf("%s: wrapper drops telemetry.Traceable", name)
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// program in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program (%v)", w.Name, workloadNames())
		}
	}
	units := layerMetrics(tracedRep{rec: &recorder{}}, setupInfo{})
	var pl []string
	for _, m := range doc.PerLayer {
		pl = append(pl, m.Name)
		if u, ok := units[m.Name]; ok && u.Unit != m.Unit {
			t.Errorf("%s: unit %q, program reports %q", m.Name, m.Unit, u.Unit)
		}
	}
	sort.Strings(pl)
	if want := perLayerNames(); !equal(pl, want) {
		t.Errorf("per_layer %v\nprogram reports %v", pl, want)
	}
	var ee []string
	for _, m := range doc.EndToEnd {
		ee = append(ee, m.Name)
	}
	sort.Strings(ee)
	if want := endToEndNames(); !equal(ee, want) {
		t.Errorf("end_to_end %v, program reports %v", ee, want)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
