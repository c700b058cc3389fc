// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which,
// together with a seeded random source, makes every simulation run exactly
// reproducible for a given seed.
//
// # Hot path
//
// The queue is an inlined, value-typed 4-ary min-heap whose entries
// carry the event itself — {at, seq, cb, arg} — so there is no per-event
// pointer, no side table and no container/heap dispatch. Events cannot be
// cancelled: a component that needs a movable timeout keeps a deadline
// and ignores events that fire before it (see netem's RTO). Two
// scheduling APIs share the one dispatch path:
//
//   - AtCall/AfterCall take a fixed Callback plus an argument. When the
//     callback is a package-level function and the argument is a pointer,
//     scheduling is allocation-free — this is the per-packet path.
//   - At/After take a closure and wrap it as an AtCall argument.
//     Convenient, but the closure itself is an allocation at the call
//     site — use on setup and other cold paths.
package sim

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Clock is a point in virtual time, measured from the start of the
// simulation. It is a time.Duration so that the full arithmetic and
// formatting toolbox of the standard library applies.
type Clock = time.Duration

// Callback is a fixed function scheduled with AtCall/AfterCall. The
// argument it was scheduled with is passed back at dispatch. Storing a
// pointer in arg does not allocate; package-level Callback values do not
// allocate either, which is what keeps the per-packet paths alloc-free.
type Callback func(arg any)

// heapEntry is one scheduled event: ordering key plus payload. Entries
// are moved by value during sifts.
type heapEntry struct {
	at  Clock
	seq uint64 // tie-breaker: FIFO among same-instant events
	cb  Callback
	arg any
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with New.
type Engine struct {
	now        Clock
	seq        uint64
	heap       []heapEntry
	rng        *rand.Rand
	dispatched int64 // total events fired, counted on the hot path

	// progress mirrors now/dispatched/pending through atomics for
	// cross-goroutine health sampling. The hot path refreshes it every
	// progressStride dispatches (amortized: three atomic stores per
	// stride), so readers see values at most one stride stale rather
	// than racing the single-threaded dispatch loop.
	progress struct {
		simNs   atomic.Int64
		events  atomic.Int64
		pending atomic.Int64
	}
}

// progressStride is the dispatch-count interval between atomic
// progress publications. A power of two keeps the hot-path check a
// mask; 1024 dispatches is well under a millisecond of wall time, so
// health samples taken every second lose nothing to the amortization.
const progressStride = 1024

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Clock { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// components of a simulation should draw from this source (or from sources
// derived from it) so that runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// less orders entries by time, then FIFO by scheduling sequence.
func less(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order from leaf i towards the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ent, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// siftDown restores heap order from the root (or an arbitrary hole) down.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ent := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &ent) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ent
}

// AtCall schedules cb(arg) at virtual time t. Scheduling in the past (t
// less than Now) runs the event at the current instant instead; this
// keeps callers simple when computing delays that may round to zero or
// below. With a package-level cb and a pointer arg this allocates
// nothing.
func (e *Engine) AtCall(t Clock, cb Callback, arg any) {
	if t < e.now {
		t = e.now
	}
	e.heap = append(e.heap, heapEntry{at: t, seq: e.seq, cb: cb, arg: arg})
	e.seq++
	e.siftUp(len(e.heap) - 1)
}

// AfterCall schedules cb(arg) to run d from now.
func (e *Engine) AfterCall(d Clock, cb Callback, arg any) { e.AtCall(e.now+d, cb, arg) }

// callFn dispatches a closure scheduled through At/After.
func callFn(arg any) { arg.(func())() }

// At schedules fn to run at virtual time t (clamped to now like AtCall).
// The closure is a call-site allocation — hot paths use AtCall.
func (e *Engine) At(t Clock, fn func()) { e.AtCall(t, callFn, fn) }

// After schedules fn to run d from now.
func (e *Engine) After(d Clock, fn func()) { e.AtCall(e.now+d, callFn, fn) }

// publishProgress refreshes the atomic mirror of the progress counters.
func (e *Engine) publishProgress() {
	e.progress.simNs.Store(int64(e.now))
	e.progress.events.Store(e.dispatched)
	e.progress.pending.Store(int64(len(e.heap)))
}

// Progress returns virtual time (ns), total dispatched events, and
// pending events from the atomic mirror. Unlike Now/Pending it is safe
// to call from other goroutines while the engine runs; values lag the
// dispatch loop by at most progressStride events. It implements
// telemetry.ProgressSource.
func (e *Engine) Progress() (simNs, events, pending int64) {
	return e.progress.simNs.Load(), e.progress.events.Load(), e.progress.pending.Load()
}

// Run dispatches events in order until the queue is empty or virtual time
// would pass until. The clock is left at the time of the last dispatched
// event, or at until if the queue drained earlier.
func (e *Engine) Run(until Clock) {
	for len(e.heap) > 0 && e.heap[0].at <= until {
		ent := e.heap[0]
		n := len(e.heap) - 1
		e.heap[0] = e.heap[n]
		e.heap[n] = heapEntry{} // drop the payload reference
		e.heap = e.heap[:n]
		if n > 0 {
			e.siftDown(0)
		}
		e.now = ent.at
		e.dispatched++
		if e.dispatched&(progressStride-1) == 0 {
			e.publishProgress()
		}
		ent.cb(ent.arg)
	}
	if e.now < until {
		e.now = until
	}
	e.publishProgress() // exact totals once the loop hands control back
}

// Pending returns the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int { return len(e.heap) }
