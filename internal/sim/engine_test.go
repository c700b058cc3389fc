package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunDispatchesInTimeOrder(t *testing.T) {
	e := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d * time.Millisecond
		e.At(d, func() { got = append(got, d) })
	}
	e.Run(time.Second)
	want := []time.Duration{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i, d := range want {
		if got[i] != d*time.Millisecond {
			t.Errorf("event %d at %v, want %v", i, got[i], d*time.Millisecond)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.After(5*time.Millisecond, func() { at = e.Now() })
	})
	e.Run(time.Second)
	if at != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 15ms", at)
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := New(1)
	fired := 0
	e.At(10*time.Millisecond, func() { fired++ })
	e.At(30*time.Millisecond, func() { fired++ })
	e.Run(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d events before until, want 1", fired)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", e.Now())
	}
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() })
	})
	e.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", at)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := New(seed)
		var out []time.Duration
		var schedule func()
		schedule = func() {
			if e.Now() > 100*time.Millisecond {
				return
			}
			out = append(out, e.Now())
			e.After(time.Duration(1+e.Rand().Intn(5))*time.Millisecond, schedule)
		}
		e.After(0, schedule)
		e.Run(200 * time.Millisecond)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic timestamps at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events with arbitrary times, dispatch order is
// the sorted order of times (stable by insertion for ties).
func TestQuickDispatchOrderSorted(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New(7)
		var got []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			e.At(d, func() { got = append(got, d) })
		}
		e.Run(time.Hour)
		if len(got) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AtCall events interleave with At events in strict
// same-instant FIFO order — the heap swap must not reorder ties.
func TestSameInstantFIFOMixedAPIs(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			e.At(time.Millisecond, func() { order = append(order, i) })
		} else {
			e.AtCall(time.Millisecond, func(arg any) { order = append(order, arg.(int)) }, i)
		}
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-instant events fired out of order: %v", order)
		}
	}
}

// Property (mirrors link_prop_test.go style): for any batch of events
// with arbitrary times, dispatch order equals the stable sort of the
// batch by time — i.e. FIFO among equal instants, sorted across them.
func TestQuickSameInstantFIFOPreserved(t *testing.T) {
	f := func(offsets []uint8) bool {
		e := New(11)
		type fired struct {
			at time.Duration
			id int
		}
		var got []fired
		for i, o := range offsets {
			id := i
			// Coarse buckets force many same-instant collisions.
			d := time.Duration(o%8) * time.Millisecond
			e.AtCall(d, func(arg any) { got = append(got, fired{e.Now(), arg.(int)}) }, id)
		}
		e.Run(time.Hour)
		if len(got) != len(offsets) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false // time order violated
			}
			if got[i].at == got[i-1].at && got[i].id < got[i-1].id {
				return false // FIFO among ties violated
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.At(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run(time.Second)
	}
}
