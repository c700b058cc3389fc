package netem

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/bbr"
	"libra/internal/cc/cubic"
	"libra/internal/cc/reno"
	"libra/internal/sim"
	"libra/internal/trace"
)

// benchNet builds the fixed end-to-end workload used by the core perf
// trajectory: four CBR senders overdriving a 96 Mbit/s bottleneck, so
// the run exercises enqueue, tail drop, serialization, delivery, and the
// ACK/loss paths at full packet rate.
func benchNet(seed int64) *Network {
	n := New(Config{
		Capacity:    trace.Constant(trace.Mbps(96)),
		MinRTT:      20 * time.Millisecond,
		BufferBytes: 300_000,
		Seed:        seed,
	})
	for i := 0; i < 4; i++ {
		n.AddFlow(cc.FixedRate{R: trace.Mbps(30)}, 0, 0)
	}
	return n
}

// bdpNet builds the large-BDP, ACK-clocked workload: window flows
// (cubic, cubic, reno, bbr) on a 200 Mbit/s, 100 ms path with a
// one-BDP droptail buffer. Their windows grow to thousands of packets,
// so per-ACK work that scales with the window shows here, where
// benchNet's fixed-rate flows never build a window.
func bdpNet(seed int64) *Network {
	n := New(Config{
		Capacity:    trace.Constant(trace.Mbps(200)),
		MinRTT:      100 * time.Millisecond,
		BufferBytes: 2_500_000,
		Seed:        seed,
	})
	ctrls := []cc.Controller{cubic.New(cc.Config{}), cubic.New(cc.Config{}), reno.New(cc.Config{}), bbr.New(cc.Config{})}
	for i, ctrl := range ctrls {
		n.AddFlow(ctrl, time.Duration(i)*10*time.Millisecond, 0)
	}
	return n
}

// packets processed by the bottleneck: delivered plus dropped.
func (n *Network) benchPackets() int64 {
	return n.link.DeliveredBytes()/int64(n.cfg.MSS) + n.link.DropStats().Total()
}

// BenchmarkNetemPacketsPerSec reports the end-to-end emulation rate; one
// op is one emulated packet.
func BenchmarkNetemPacketsPerSec(b *testing.B) {
	n := benchNet(7)
	b.ReportAllocs()
	b.ResetTimer()
	horizon := time.Duration(0)
	for n.benchPackets() < int64(b.N) {
		horizon += time.Second
		n.Eng.Run(horizon)
		if n.Eng.Pending() == 0 {
			b.Fatal("simulation drained unexpectedly")
		}
	}
}

// TestNetemSteadyStateAllocs asserts the zero-alloc invariant end to
// end: once the network is warm (queues sized, pools populated, inflight
// windows grown), advancing virtual time must allocate nothing — every
// per-packet event rides the engine's pooled callback path, and neither
// the in-flight logs nor BBR's filter grow. The window workload warms
// longer so its windows cycle through loss first.
func TestNetemSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(seed int64) *Network
		warmup time.Duration
	}{
		{"fixed-rate", benchNet, 2 * time.Second},
		{"bdp", bdpNet, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(7)
			horizon := tc.warmup
			n.Eng.Run(horizon)
			avg := testing.AllocsPerRun(5, func() {
				horizon += 500 * time.Millisecond
				n.Eng.Run(horizon)
			})
			if avg != 0 {
				t.Errorf("steady-state run allocates %.1f allocs per 500ms slice, want 0", avg)
			}
			if n.benchPackets() == 0 {
				t.Fatal("workload processed no packets")
			}
		})
	}
}

// bdpBenchNumbers is BENCH_core.json's "bdp" block: bdpNet's rate.
type bdpBenchNumbers struct {
	Workload        string  `json:"workload"`
	PacketsPerSec   float64 `json:"bdp_packets_per_sec"`
	AllocsPerPacket float64 `json:"bdp_allocs_per_packet"`
}

// coreBenchNumbers is one measurement block in BENCH_core.json.
type coreBenchNumbers struct {
	Engine          string  `json:"engine"`
	EventsPerSec    float64 `json:"engine_events_per_sec"`
	NsPerEvent      float64 `json:"engine_ns_per_event"`
	AllocsPerEvent  float64 `json:"engine_allocs_per_event"`
	PacketsPerSec   float64 `json:"netem_packets_per_sec"`
	AllocsPerPacket float64 `json:"netem_allocs_per_packet"`
}

// benchEvent is measureEngine's event argument; a pointer, so
// scheduling it boxes nothing.
type benchEvent struct{ fired int }

func benchEventCb(arg any) { arg.(*benchEvent).fired++ }

// measureEngine times scheduling + dispatching nev events through a
// fresh engine on the path the simulator uses — AtCall with a
// package-level callback and a pointer argument — in the same
// worst-case shape the pre-rewrite baseline was recorded with: the
// whole batch resident in the heap.
func measureEngine(nev int) (evPerSec, nsPerEv, allocsPerEv float64) {
	e := sim.New(1)
	ev := &benchEvent{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for j := 0; j < nev; j++ {
		e.AtCall(time.Duration(j)*time.Microsecond, benchEventCb, ev)
	}
	e.Run(time.Hour)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(nev) / wall.Seconds(),
		float64(wall.Nanoseconds()) / float64(nev),
		float64(m1.Mallocs-m0.Mallocs) / float64(nev)
}

// measureNetem times a workload built by build for d virtual seconds
// and reports bottleneck packets/sec plus allocs/packet.
func measureNetem(build func(seed int64) *Network, d time.Duration) (pktsPerSec, allocsPerPkt float64) {
	run := func() (int64, time.Duration) {
		n := build(7)
		start := time.Now()
		n.Run(d)
		return n.benchPackets(), time.Since(start)
	}
	run() // warm-up: page in code paths
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pkts, wall := run()
	runtime.ReadMemStats(&m1)
	return float64(pkts) / wall.Seconds(), float64(m1.Mallocs-m0.Mallocs) / float64(pkts)
}

// mergeBenchBlocks sets the given top-level blocks of the JSON file at
// path and keeps every other block there, so the guards that share
// BENCH_core.json can run in any order.
func mergeBenchBlocks(t *testing.T, path string, blocks map[string]any) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &doc); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", path, err)
		}
	}
	for name, blk := range blocks {
		raw, err := json.Marshal(blk)
		if err != nil {
			t.Fatal(err)
		}
		doc[name] = raw
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeBenchBlocksKeepsOthers pins that recording one guard's
// blocks leaves the blocks other guards recorded in place.
func TestMergeBenchBlocksKeepsOthers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	prev := `{"current": {"engine": "old"}, "flight": {"ring_depth": 4096}}`
	if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	mergeBenchBlocks(t, path, map[string]any{"current": coreBenchNumbers{Engine: "new"}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Current coreBenchNumbers `json:"current"`
		Flight  struct {
			Depth int `json:"ring_depth"`
		} `json:"flight"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Current.Engine != "new" || doc.Flight.Depth != 4096 {
		t.Fatalf("merged file lost a block or kept a stale one:\n%s", raw)
	}
}

// TestBenchCore records the core perf trajectory into BENCH_core.json:
// engine events/sec and end-to-end netem packets/sec, with allocs per
// event/packet, and the window workload's packets/sec as the "bdp"
// block. The baseline block (the pre-rewrite container/heap
// engine, measured on the same machine) is preserved from the existing
// file so the speedup stays anchored to the recorded before/after pair,
// and so are the blocks other guards record there.
// Only arms under CORE_BENCH=1 (make bench-core): timing inside a
// parallel `go test ./...` sweep measures contention, not the engine.
func TestBenchCore(t *testing.T) {
	if os.Getenv("CORE_BENCH") == "" {
		t.Skip("set CORE_BENCH=1 (make bench-core) to measure and record core perf")
	}

	cur := coreBenchNumbers{Engine: "value-typed 4-ary heap of {at, seq, cb, arg}, AtCall with package-level callback"}
	cur.EventsPerSec, cur.NsPerEvent, cur.AllocsPerEvent = measureEngine(2_000_000)
	cur.PacketsPerSec, cur.AllocsPerPacket = measureNetem(benchNet, 10*time.Second)
	bdp := bdpBenchNumbers{Workload: "cubic, cubic, reno, bbr on 200 Mbit/s, 100 ms, 1-BDP droptail, 5 s"}
	bdp.PacketsPerSec, bdp.AllocsPerPacket = measureNetem(bdpNet, 5*time.Second)

	path := os.Getenv("CORE_BENCH_OUT")
	if path == "" {
		path = "../../BENCH_core.json"
	}
	var baseline coreBenchNumbers
	if prev, err := os.ReadFile(path); err == nil {
		var old struct {
			Baseline coreBenchNumbers `json:"baseline"`
		}
		if json.Unmarshal(prev, &old) == nil && old.Baseline.PacketsPerSec > 0 {
			baseline = old.Baseline
		}
	}
	if baseline.PacketsPerSec == 0 {
		// First recording on this machine: the current numbers become the
		// baseline for future regressions.
		baseline = cur
	}
	speedup := cur.PacketsPerSec / baseline.PacketsPerSec
	mergeBenchBlocks(t, path, map[string]any{"baseline": baseline, "current": cur, "packets_speedup": speedup, "bdp": bdp})
	t.Logf("engine: %.0f events/sec (%.1f ns/event, %.2f allocs/event)",
		cur.EventsPerSec, cur.NsPerEvent, cur.AllocsPerEvent)
	t.Logf("netem: %.0f packets/sec (%.2f allocs/packet), %.2fx vs baseline -> %s",
		cur.PacketsPerSec, cur.AllocsPerPacket, speedup, path)
	t.Logf("bdp: %.0f packets/sec (%.3f allocs/packet)", bdp.PacketsPerSec, bdp.AllocsPerPacket)
	if os.Getenv("CORE_BENCH_GUARD") != "" {
		if cur.AllocsPerPacket >= 1 {
			t.Errorf("netem steady path allocates %.2f allocs/packet, want < 1", cur.AllocsPerPacket)
		}
		if bdp.AllocsPerPacket >= 1 {
			t.Errorf("window workload allocates %.2f allocs/packet, want < 1", bdp.AllocsPerPacket)
		}
	}
}
