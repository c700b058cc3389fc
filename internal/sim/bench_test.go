package sim

import (
	"os"
	"testing"
	"time"
)

// chain is the benchmark workload: a self-rescheduling event, the shape
// of every steady-state netem path (pacing timers, link service, ACK
// return, controller ticks).
type chain struct {
	e    *Engine
	n    int
	stop int
}

func chainCb(arg any) {
	c := arg.(*chain)
	c.n++
	if c.n < c.stop {
		c.e.AfterCall(time.Microsecond, chainCb, c)
	}
}

// BenchmarkSteadyCallback measures the zero-alloc hot path: one AfterCall
// schedule + one dispatch per op, on a warm engine with a small queue.
func BenchmarkSteadyCallback(b *testing.B) {
	e := New(1)
	c := &chain{e: e, stop: b.N}
	// Background population so the heap has realistic depth.
	for i := 0; i < 64; i++ {
		e.At(time.Hour+time.Duration(i), func() {})
	}
	e.AfterCall(time.Microsecond, chainCb, c)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(time.Hour - time.Minute)
	if c.n < b.N {
		b.Fatalf("dispatched %d of %d events", c.n, b.N)
	}
}

// BenchmarkClosureSchedule measures At, the cold-path closure API, for
// comparison: it dispatches through AtCall with the closure as argument.
func BenchmarkClosureSchedule(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run(time.Duration(b.N) * time.Microsecond)
}

// BenchmarkHeapChurn stresses sift depth: schedule b.N events with
// spread timestamps up front, then drain.
func BenchmarkHeapChurn(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(time.Duration((i*2654435761)%1000000)*time.Microsecond, fn)
	}
	e.Run(time.Hour)
}

// steadyBudgetNs bounds the per-event cost (schedule + dispatch) of the
// pooled-callback hot path. The measured figure on the recording machine
// is ~40-80 ns; 250 ns absorbs slower CI hardware while still catching
// an accidental reintroduction of boxing or container/heap dispatch.
const steadyBudgetNs = 250

// TestEngineBudget is the regression guard for the allocation-free hot
// path: steady-state scheduling/dispatch must stay at exactly 0
// allocs/event, and under steadyBudgetNs ns/event. The nanosecond
// assertion only arms when CORE_BENCH_GUARD is set (make bench-core /
// scripts/check.sh), because it needs this package run in isolation; the
// allocation assertion is unconditional — allocations do not depend on
// machine load.
func TestEngineBudget(t *testing.T) {
	r := testing.Benchmark(BenchmarkSteadyCallback)
	if r.N == 0 {
		t.Skip("benchmark did not run")
	}
	t.Logf("steady callback path: %d ns/event, %d allocs/event (N=%d)",
		r.NsPerOp(), r.AllocsPerOp(), r.N)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("steady-state event path allocates: %d allocs/event, want 0", a)
	}
	if os.Getenv("CORE_BENCH_GUARD") == "" {
		t.Log("set CORE_BENCH_GUARD=1 (make bench-core) to arm the ns/event assertion")
		return
	}
	if ns := r.NsPerOp(); ns > steadyBudgetNs {
		t.Errorf("steady-state event path costs %d ns/event, budget %d", ns, steadyBudgetNs)
	}
}
