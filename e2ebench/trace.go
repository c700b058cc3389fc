package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"libra/internal/cc"
	"libra/internal/core"
	"libra/internal/sim"
	"libra/internal/telemetry"
)

// The traced run measures each layer from outside, at its public
// interfaces. Coarse boundaries (workload, run, episode, Network.Run,
// PPO.Update) become spans kept in memory; per-call boundaries
// (controller callbacks, sink Emit) aggregate into counters so memory
// stays bounded however long the run.

// epoch anchors nanotime, the span and counter time base: nanoseconds
// since process start on the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// counter aggregates timed calls at one interface.
type counter struct {
	ns, calls int64
}

// counters is one goroutine's set of per-call accumulators. Every
// decorator writes to the set of the job that built it, so concurrent
// jobs never share one.
type counters struct {
	cc        counter // classic controllers, standalone or inside Libra
	ccAcks    int64
	core      counter // core.Libra entry points, inclusive of its classic adapter
	rlcc      counter // standalone learning controllers (aurora, mod-rl, orca)
	rollout   counter // the training controller during episodes
	recorder  counter // JSONL recorder sink
	tscollect counter // time-series collector sink
	flight    counter // flight recorder and its anomaly tap
	analyze   counter // streaming analyzer sink
	// inflightMax is the largest in-flight byte count any ACK reported.
	inflightMax int
	// earlyExits counts th1 early-exit events seen on the event stream.
	earlyExits int64
	// ccInCore is the part of cc spent inside Libra's classic adapter.
	ccInCore int64
	// eng, when set, is sampled for its pending-timer count every
	// pendingStride ACKs.
	eng        *sim.Engine
	ackN       int64
	pendingMax int64
}

// pendingStride spaces the engine's pending-timer samples.
const pendingStride = 256

// layerNs returns the per-call ns of every layer a counter set feeds,
// with core made exclusive of the classic adapter calls it wraps (those
// already sit in cc).
func (c *counters) layerNs() map[string]int64 {
	return map[string]int64{
		"cc":                  c.cc.ns,
		"core":                c.core.ns - c.ccInCore,
		"rlcc":                c.rlcc.ns,
		"rl.rollout":          c.rollout.ns,
		"telemetry.recorder":  c.recorder.ns,
		"telemetry.tscollect": c.tscollect.ns,
		"telemetry.flight":    c.flight.ns,
		"analyze.feed":        c.analyze.ns,
	}
}

func (c *counters) samplePending() {
	if c.eng == nil {
		return
	}
	if c.ackN++; c.ackN%pendingStride == 0 {
		c.pendingMax = max(c.pendingMax, int64(c.eng.Pending()))
	}
}

// timedCtrl wraps a controller so its callbacks are timed into one
// counter. OnAck, OnLoss, OnTick and Stop are timed; Rate and Window are
// getters the sender polls several times per packet, so they are left
// untimed to keep the clock reads (and the trace overhead) per packet
// bounded. Their time lands in netem.self_ns.
type timedCtrl struct {
	in   cc.Controller
	c    *counter
	set  *counters
	acks bool // count OnAck calls as cc ACKs
}

func (t *timedCtrl) Name() string { return t.in.Name() }

func (t *timedCtrl) OnAck(a *cc.Ack) {
	if a.InFlight > t.set.inflightMax {
		t.set.inflightMax = a.InFlight
	}
	if t.acks {
		t.set.ccAcks++
	}
	t.set.samplePending()
	t0 := nanotime()
	t.in.OnAck(a)
	t.c.ns += nanotime() - t0
	t.c.calls++
}

func (t *timedCtrl) OnLoss(l *cc.Loss) {
	t0 := nanotime()
	t.in.OnLoss(l)
	t.c.ns += nanotime() - t0
	t.c.calls++
}

func (t *timedCtrl) Rate() float64   { return t.in.Rate() }
func (t *timedCtrl) Window() float64 { return t.in.Window() }

// learnerCtrl is timedCtrl for controllers that also tick, stop, take a
// tracer and size their memory: the learning controllers and Libra.
// netem probes cc.Ticker and cc.Stopper, and exp probes the sizers, so
// the wrapper must expose exactly the optional interfaces of what it
// wraps; wrapController refuses any other combination.
type learnerCtrl struct {
	timedCtrl
}

type learner interface {
	cc.Ticker
	cc.Stopper
	MemBytes() int
	OwnMemBytes() int
	SharesAgent() bool
}

func (t *learnerCtrl) OnTick(now time.Duration) time.Duration {
	t0 := nanotime()
	d := t.in.(cc.Ticker).OnTick(now)
	t.c.ns += nanotime() - t0
	t.c.calls++
	return d
}

func (t *learnerCtrl) Stop(now time.Duration) {
	t0 := nanotime()
	t.in.(cc.Stopper).Stop(now)
	t.c.ns += nanotime() - t0
	t.c.calls++
}

// SetTracer forwards to the wrapped controller. A learner that takes no
// tracer (orca) ignores it, exactly as exp.AttachTracer would.
func (t *learnerCtrl) SetTracer(tr telemetry.Tracer, id int) {
	if tb, ok := t.in.(telemetry.Traceable); ok {
		tb.SetTracer(tr, id)
	}
}

func (t *learnerCtrl) MemBytes() int     { return t.in.(learner).MemBytes() }
func (t *learnerCtrl) OwnMemBytes() int  { return t.in.(learner).OwnMemBytes() }
func (t *learnerCtrl) SharesAgent() bool { return t.in.(learner).SharesAgent() }

// wrapController returns a timing decorator for c that implements the
// same optional interfaces as c.
func wrapController(in cc.Controller, c *counter, set *counters, acks bool) (cc.Controller, error) {
	base := timedCtrl{in: in, c: c, set: set, acks: acks}
	if _, ok := in.(learner); ok {
		return &learnerCtrl{base}, nil
	}
	_, tick := in.(cc.Ticker)
	_, stop := in.(cc.Stopper)
	_, trace := in.(telemetry.Traceable)
	_, mem := in.(interface{ MemBytes() int })
	if tick || stop || trace || mem {
		return nil, fmt.Errorf("e2ebench: no timing decorator for %s's optional interfaces (tick=%v stop=%v trace=%v mem=%v)",
			in.Name(), tick, stop, trace, mem)
	}
	return &base, nil
}

// timedClassic wraps the classic adapter inside Libra, so its time is
// charged to cc and subtracted from core.
type timedClassic struct {
	in  core.Classic
	set *counters
}

func (t *timedClassic) time(f func()) {
	t0 := nanotime()
	f()
	d := nanotime() - t0
	t.set.cc.ns += d
	t.set.ccInCore += d
	t.set.cc.calls++
}

func (t *timedClassic) Name() string { return t.in.Name() }
func (t *timedClassic) OnAck(a *cc.Ack) {
	t.set.ccAcks++
	t.time(func() { t.in.OnAck(a) })
}
func (t *timedClassic) OnLoss(l *cc.Loss) { t.time(func() { t.in.OnLoss(l) }) }
func (t *timedClassic) Rate() float64     { return t.in.Rate() }
func (t *timedClassic) Window() float64   { return t.in.Window() }
func (t *timedClassic) SeedRate(rate float64, srtt, now time.Duration) {
	t.time(func() { t.in.SeedRate(rate, srtt, now) })
}
func (t *timedClassic) CurrentRate(srtt time.Duration) (r float64) {
	t.time(func() { r = t.in.CurrentRate(srtt) })
	return r
}
func (t *timedClassic) StageRTTs() (int, int) { return t.in.StageRTTs() }

// timedSink wraps a telemetry sink so its Emit calls are timed.
type timedSink struct {
	in  telemetry.Tracer
	c   *counter
	set *counters
	// countEarly counts early-exit events (set on exactly one sink).
	countEarly bool
}

func (t *timedSink) Enabled() bool { return t.in.Enabled() }

func (t *timedSink) Emit(e *telemetry.Event) {
	if t.countEarly && e.Type == telemetry.TypeEarlyExit {
		t.set.earlyExits++
	}
	t0 := nanotime()
	t.in.Emit(e)
	t.c.ns += nanotime() - t0
	t.c.calls++
}

// span is one coarse boundary of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Workers is the number of goroutines the span's children share;
	// its capacity is duration × Workers. 1 for a serial span.
	Workers int `json:"workers"`
	// Inner is the per-call time (by layer) the span's own counter set
	// accumulated between its start and end, inclusive of children.
	Inner map[string]int64 `json:"inner_ns,omitempty"`
	// Extra is per-call time charged to the span from outside its own
	// counter set (lab-search's per-controller counters).
	Extra map[string]int64 `json:"extra_ns,omitempty"`

	set  *counters
	snap map[string]int64
}

// recorder keeps spans in memory; safe for concurrent jobs.
type recorder struct {
	mu    sync.Mutex
	spans []*span
}

// begin opens a span. set is the counter set of the goroutine the span
// runs on (nil when it does no per-call work of its own).
func (r *recorder) begin(parent *span, name, layer string, set *counters) *span {
	s := &span{Parent: -1, Name: name, Layer: layer, Workers: 1, set: set}
	if parent != nil {
		s.Parent = parent.ID
	}
	if set != nil {
		s.snap = set.layerNs()
	}
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.Start = nanotime()
	return s
}

// end closes a span and records its inclusive per-call time.
func (r *recorder) end(s *span) {
	s.End = nanotime()
	if s.set == nil {
		return
	}
	now := s.set.layerNs()
	s.Inner = map[string]int64{}
	for k, v := range now {
		if d := v - s.snap[k]; d != 0 {
			s.Inner[k] = d
		}
	}
}

// attribution is the per-layer self time of one traced run.
type attribution struct {
	// Self maps layer to self ns. "other" is root time outside every
	// named layer's span.
	Self map[string]int64
	// Capacity is the goroutine-time the run had: the root's duration,
	// plus (Workers-1) × duration for every concurrent span.
	Capacity int64
	// Negative lists spans whose computed self time was below zero,
	// which would mean double counting.
	Negative []string
}

// attribute computes self times: a span's self is its capacity minus
// its children's durations minus the per-call time its own counter set
// accumulated outside those children, which goes to the callee layers.
// By construction the self times sum to Capacity.
func (r *recorder) attribute() attribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]*span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	a := attribution{Self: map[string]int64{}}
	for _, s := range r.spans {
		dur := s.End - s.Start
		capacity := dur * int64(s.Workers)
		if s.Parent < 0 {
			a.Capacity += dur
		}
		if s.Workers > 1 {
			a.Capacity += dur * int64(s.Workers-1)
		}
		self := capacity
		own := map[string]int64{}
		for k, v := range s.Inner {
			own[k] += v
		}
		for k, v := range s.Extra {
			own[k] += v
		}
		for _, c := range kids[s.ID] {
			self -= c.End - c.Start
			if c.set == s.set {
				for k, v := range c.Inner {
					own[k] -= v
				}
			}
		}
		for k, v := range own {
			self -= v
			a.Self[k] += v
		}
		if self < 0 {
			a.Negative = append(a.Negative, fmt.Sprintf("%s(%s)=%d", s.Name, s.Layer, self))
		}
		a.Self[s.Layer] += self
	}
	return a
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
