package exp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runner.golden")

// goldenRun is one pinned runner invocation: it drives a fresh context
// (workers 1, JSONL recorder attached) and returns the metrics.
type goldenRun struct {
	name string
	run  func(rc *RunContext) []Metrics
}

func goldenRuns(t *testing.T) []goldenRun {
	ag, err := LoadAgentSet(filepath.Join("..", "..", "models"), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(name string) *faults.Plan {
		p, ok := faults.Preset(name)
		if !ok {
			t.Fatalf("fault preset %s missing", name)
		}
		return p
	}
	topo := func(name string) *TopoSpec {
		ts, ok := TopoPreset(name)
		if !ok {
			t.Fatalf("topology preset %s missing", name)
		}
		return ts
	}
	wired := func(name string, d time.Duration) Scenario {
		return Scenario{Name: name, Capacity: trace.Constant(trace.Mbps(24)),
			MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: d}
	}
	return []goldenRun{
		{"runflow-blackout", func(rc *RunContext) []Metrics {
			s := wired("blackout", 12*time.Second)
			s.Faults = plan("blackout")
			return []Metrics{rc.RunFlow(s, mustMaker("c-libra", ag, nil), time.Second)}
		}},
		{"runflows-mix", func(rc *RunContext) []Metrics {
			s := wired("mix", 6*time.Second)
			s.Profiles = []string{"bulk", "low-latency"}
			mks := []Maker{mustMaker("c-libra", ag, nil), mustMaker("aurora", ag, nil), mustMaker("cubic", ag, nil)}
			return rc.RunFlows(s, mks, []time.Duration{0, time.Second, 2 * time.Second}, time.Second)
		}},
		{"runflows-dumbbell", func(rc *RunContext) []Metrics {
			s := Scenario{Name: "dumbbell", Duration: 5 * time.Second, Topo: topo("dumbbell"), Faults: plan("bursty")}
			mks := []Maker{mustMaker("c-libra", ag, nil), mustMaker("bbr", ag, nil)}
			return rc.RunFlows(s, mks, nil, time.Second)
		}},
		{"runflow-parking-lot", func(rc *RunContext) []Metrics {
			s := Scenario{Name: "parking-lot", Duration: 4 * time.Second, Topo: topo("parking-lot")}
			return []Metrics{rc.RunFlow(s, mustMaker("aurora", ag, nil), 0)}
		}},
	}
}

// renderGolden runs every pinned invocation and renders what it
// produced: digests of the event stream and of the registry text, the
// batcher counters, and each flow's metrics and 1 s series at full
// float precision. CPUFrac and libra_flow_cpu_frac are left out: they
// are wall-clock measurements.
func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, g := range goldenRuns(t) {
		var events bytes.Buffer
		rec := telemetry.NewRecorder(&events)
		rc := NewRunContext(5)
		rc.Workers = 1
		rc.Tracer = rec
		ms := g.run(rc)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := rc.Metrics.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, ln := range strings.SplitAfter(prom.String(), "\n") {
			if !strings.Contains(ln, "libra_flow_cpu_frac") {
				kept = append(kept, ln)
			}
		}
		fmt.Fprintf(&b, "run %s\n", g.name)
		fmt.Fprintf(&b, "  events %x\n", sha256.Sum256(events.Bytes()))
		fmt.Fprintf(&b, "  registry %x\n", sha256.Sum256([]byte(strings.Join(kept, ""))))
		fmt.Fprintf(&b, "  batch %+v\n", rc.Batch.Snapshot())
		for i, m := range ms {
			if m.Failed {
				fmt.Fprintf(&b, "  flow %d failed: %v\n", i, m.Err)
				continue
			}
			fmt.Fprintf(&b, "  flow %d %s util %.17g thr %.17g delay %.17g loss %.17g\n",
				i, m.Ctrl.Name(), m.Util, m.ThrMbps, m.DelayMs, m.LossRate)
			writeSeries(&b, "thr", m.Flow.Stats.Throughput, (*netem.Series).Rate)
			writeSeries(&b, "delay", m.Flow.Stats.Delay, (*netem.Series).Mean)
		}
	}
	return b.String()
}

func writeSeries(b *strings.Builder, name string, s *netem.Series, at func(*netem.Series, int) float64) {
	if s == nil {
		return
	}
	fmt.Fprintf(b, "    %s", name)
	for i := 0; i < s.Len(); i++ {
		fmt.Fprintf(b, " %.17g", at(s, i))
	}
	b.WriteString("\n")
}

// TestRunnerGolden pins the runner's observable output — event stream,
// registry, batcher counters, per-flow metrics and series — byte for
// byte across single-bottleneck, fault-injected and topology runs, so
// a refactor of the run loop must reproduce it exactly. Regenerate
// with go test ./internal/exp/ -run TestRunnerGolden -update.
func TestRunnerGolden(t *testing.T) {
	got := renderGolden(t)
	path := filepath.Join("testdata", "runner.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("runner output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
