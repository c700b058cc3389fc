package exp

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// anomalyLog records the flow ids of the anomaly markers it sees.
type anomalyLog struct{ flows []int }

func (a *anomalyLog) Enabled() bool { return true }

func (a *anomalyLog) Emit(e *telemetry.Event) {
	if e.Type == telemetry.TypeAnomaly {
		a.flows = append(a.flows, e.Flow)
	}
}

// midRunPanic is a CUBIC that fails on its first ACK after 1 s.
type midRunPanic struct{ *cubic.Cubic }

func (c midRunPanic) OnAck(a *cc.Ack) {
	if a.Now > time.Second {
		panic("injected controller failure")
	}
	c.Cubic.OnAck(a)
}

// TestRunnerContainsPanics pins the one containment rule of RunFlow and
// RunFlows on the single bottleneck and on a topology: a panic from a
// maker or a controller marks every flow of the run Failed with the
// scenario in Err, counts one failure per run, and emits one anomaly
// per attached main flow, or one run-scoped marker (-1) when none was
// attached yet.
func TestRunnerContainsPanics(t *testing.T) {
	dumbbell, _ := TopoPreset("dumbbell")
	scenarios := []Scenario{
		{Name: "single", Capacity: trace.Constant(trace.Mbps(24)), MinRTT: 30 * time.Millisecond,
			Buffer: 150_000, Duration: 3 * time.Second},
		{Name: "dumbbell", Duration: 3 * time.Second, Topo: dumbbell},
	}
	healthy := mustMaker("cubic", nil, nil)
	points := []struct {
		name string
		// mks are RunFlows' makers; RunFlow runs the first alone.
		mks []Maker
		// flowAnomalies and flowsAnomalies are the markers RunFlow and
		// RunFlows emit.
		flowAnomalies, flowsAnomalies []int
	}{
		{"maker", []Maker{func(int64) cc.Controller { panic("injected maker failure") }, healthy},
			[]int{-1}, []int{-1}},
		{"controller", []Maker{func(seed int64) cc.Controller { return midRunPanic{cubic.New(cc.Config{Seed: seed})} }, healthy},
			[]int{0}, []int{0, 1}},
	}
	for _, s := range scenarios {
		for _, p := range points {
			t.Run(s.Name+"/"+p.name, func(t *testing.T) {
				log := &anomalyLog{}
				rc := NewRunContext(3)
				rc.Tracer = log
				failures := func() int64 { return rc.Metrics.Snapshot().Counters["libra_flow_failures_total"] }
				check := func(api string, ms []Metrics, want []int, wantFailures int64) {
					t.Helper()
					for i, m := range ms {
						if !m.Failed || m.Err == nil || !strings.Contains(m.Err.Error(), "scenario "+s.Name) {
							t.Errorf("%s flow %d: Failed %v, Err %v; want failed naming scenario %s", api, i, m.Failed, m.Err, s.Name)
						}
					}
					if got := failures(); got != wantFailures {
						t.Errorf("%s: libra_flow_failures_total = %d, want %d", api, got, wantFailures)
					}
					if !reflect.DeepEqual(log.flows, want) {
						t.Errorf("%s: anomaly flows %v, want %v", api, log.flows, want)
					}
					log.flows = nil
				}
				check("RunFlow", []Metrics{rc.RunFlow(s, p.mks[0], 0)}, p.flowAnomalies, 1)
				ms := rc.RunFlows(s, p.mks, nil, 0)
				if len(ms) != len(p.mks) {
					t.Fatalf("RunFlows returned %d metrics for %d makers", len(ms), len(p.mks))
				}
				check("RunFlows", ms, p.flowsAnomalies, 2)
			})
		}
	}
}
