package copa

import (
	"math/rand"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

func TestRegistered(t *testing.T) {
	if _, err := cc.New("copa", cc.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestLowDelayHighUtilization(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   600000, // very deep buffer
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.7 {
		t.Fatalf("Copa utilization %.3f", res.Utilization)
	}
	// Copa targets ~1/(delta) packets of queue; delay must stay far
	// below the 200ms the full buffer would add.
	if res.AvgRTT > 80*time.Millisecond {
		t.Fatalf("Copa avg RTT %v: queue not controlled", res.AvgRTT)
	}
}

func TestMovesTowardTarget(t *testing.T) {
	c := New(cc.Config{})
	base := 40 * time.Millisecond
	now := time.Duration(0)
	// Minimal queueing: target rate is huge, cwnd should grow.
	w0 := c.Window()
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	}
	if c.Window() <= w0 {
		t.Fatal("Copa did not grow with empty queue")
	}
	// Heavy queueing: current rate above target, cwnd should shrink.
	// Space ACKs so the RTTstanding window (srtt/2) ages out the old
	// low-RTT samples.
	w1 := c.Window()
	for i := 0; i < 100; i++ {
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: 4 * base, SRTT: 4 * base, MinRTT: base, Acked: 1500})
	}
	if c.Window() >= w1 {
		t.Fatal("Copa did not shrink under heavy queueing")
	}
}

func TestVelocityResetsOnDirectionChange(t *testing.T) {
	c := New(cc.Config{})
	base := 40 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 400; i++ { // long same-direction run
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	}
	if c.velocity <= 1 {
		t.Fatalf("velocity %v never doubled", c.velocity)
	}
	// Direction flip: feed high-RTT samples until the standing window
	// only contains them, at which point direction reverses.
	for i := 0; i < 30; i++ {
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: 6 * base, SRTT: 6 * base, MinRTT: base, Acked: 1500})
	}
	if c.direction != -1 {
		t.Fatalf("direction %d after sustained queueing, want -1", c.direction)
	}
	if c.velocity != 1 {
		t.Fatalf("velocity %v after direction change, want 1", c.velocity)
	}
}

func TestTimeoutHalves(t *testing.T) {
	c := New(cc.Config{})
	c.cwnd = 100 * 1500
	c.OnLoss(&cc.Loss{Timeout: true, Lost: 1500})
	if c.Window() != 50*1500 {
		t.Fatalf("timeout window %v", c.Window())
	}
}

func TestSharesWithSelf(t *testing.T) {
	a, b := cctest.RunPair(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 40 * time.Second,
	}, New(cc.Config{}), New(cc.Config{}), 0)
	ratio := a.Throughput / (a.Throughput + b.Throughput)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("two Copa flows split %.2f/%.2f", ratio, 1-ratio)
	}
}

// fullScanMin is the RTTstanding filter as a full scan: append the
// sample, cut the expired prefix, take the min of what is left.
type fullScanMin []rttSample

func (r *fullScanMin) add(now, rtt, win time.Duration) time.Duration {
	*r = append(*r, rttSample{at: now, rtt: rtt})
	cut := 0
	for cut < len(*r) && now-(*r)[cut].at > win {
		cut++
	}
	*r = (*r)[cut:]
	standing := rtt
	for _, s := range *r {
		if s.rtt < standing {
			standing = s.rtt
		}
	}
	return standing
}

// TestStandingRTTMatchesFullScan feeds a seeded ACK stream through
// OnAck and checks after every ACK that the standing RTT equals a full
// scan of the same samples over the same srtt/2 window. SRTT rises and
// falls, so the window grows and shrinks; the stream has tied and
// same-instant samples and a strictly increasing run long enough to
// compact the deque.
func TestStandingRTTMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(cc.Config{})
	var ref fullScanMin
	now := time.Duration(0)
	compactions := 0
	for i := 0; i < 20000; i++ {
		now += time.Duration(rng.Intn(200)) * time.Microsecond
		// SRTT is a triangle wave between 10 and 410 ms.
		phase := i % 8000
		srtt := 10*time.Millisecond + time.Duration(min(phase, 8000-phase))*100*time.Microsecond
		rtt := time.Duration(40+rng.Intn(8)) * time.Millisecond // few values: ties
		if i >= 4000 && i < 12000 {
			rtt = 40*time.Millisecond + time.Duration(i)*time.Microsecond // strictly increasing: the deque grows
		}
		want := ref.add(now, rtt, srtt/2)
		lo := c.standLo
		c.OnAck(&cc.Ack{Now: now, RTT: rtt, SRTT: srtt, MinRTT: 40 * time.Millisecond, Acked: 1500})
		if got := c.standWin[c.standLo].rtt; got != want {
			t.Fatalf("ack %d: standing RTT %v, full scan %v", i, got, want)
		}
		if c.standLo < lo && len(c.standWin) > 1 {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("the stream never compacted the deque")
	}
}
