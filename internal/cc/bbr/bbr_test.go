package bbr

import (
	"math/rand"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

func TestRegistered(t *testing.T) {
	if _, err := cc.New("bbr", cc.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestStartupExitsAfterPlateau(t *testing.T) {
	b := New(cc.Config{})
	now := time.Duration(0)
	delivered := int64(0)
	// Feed a constant delivery rate: bandwidth stops growing, so BBR
	// should leave STARTUP within a few rounds.
	for i := 0; i < 200 && b.State() == "STARTUP"; i++ {
		now += 10 * time.Millisecond
		delivered += 15000
		b.OnAck(&cc.Ack{
			Now: now, RTT: 50 * time.Millisecond, SRTT: 50 * time.Millisecond,
			MinRTT: 50 * time.Millisecond, Acked: 1500, InFlight: 30000,
			Delivered: delivered, DeliveryRate: 1.5e6,
		})
	}
	if b.State() == "STARTUP" {
		t.Fatal("BBR never exited STARTUP on a plateaued link")
	}
}

func TestUtilizationAndLowQueueOnWiredLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   480000, // deep buffer: BBR should not fill it
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.8 {
		t.Fatalf("BBR utilization %.3f, want >0.8", res.Utilization)
	}
	// Deep buffer would add up to 80ms of queue if filled; BBR should
	// keep the standing queue well below that.
	if res.AvgRTT > 90*time.Millisecond {
		t.Fatalf("BBR avg RTT %v: standing queue too large", res.AvgRTT)
	}
}

func TestResilientToStochasticLoss(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Loss:     0.05,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.6 {
		t.Fatalf("BBR with 5%% loss achieved only %.3f utilization", res.Utilization)
	}
}

func TestBWEstimateTracksLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	b := res.Flow.Controller().(*BBR)
	bw := trace.ToMbps(b.BW())
	if bw < 20 || bw > 31 {
		t.Fatalf("BW estimate %.1f Mbps, want ~24", bw)
	}
	if rt := b.RTprop(); rt < 40*time.Millisecond || rt > 50*time.Millisecond {
		t.Fatalf("RTprop %v, want ~40ms", rt)
	}
}

func TestSeedRateRestartsProbeCycle(t *testing.T) {
	b := New(cc.Config{})
	b.SeedRate(trace.Mbps(10), time.Second)
	if b.State() != "PROBE_BW" {
		t.Fatalf("state %s after seed, want PROBE_BW", b.State())
	}
	if b.BW() != trace.Mbps(10) {
		t.Fatalf("BW %v after seed", trace.ToMbps(b.BW()))
	}
	// First phase must be the 1.25 probe.
	if r := b.Rate(); r < trace.Mbps(12) || r > trace.Mbps(13) {
		t.Fatalf("seeded rate %.2f Mbps, want 12.5 (1.25 gain)", trace.ToMbps(r))
	}
}

func TestSeedRateIgnoresNonPositive(t *testing.T) {
	b := New(cc.Config{})
	b.SeedRate(0, time.Second)
	if b.State() != "STARTUP" {
		t.Fatal("zero seed should be ignored")
	}
}

func TestTracksCapacityIncrease(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: &trace.Step{Period: 10 * time.Second, Levels: []float64{trace.Mbps(10), trace.Mbps(40)}},
		MinRTT:   40 * time.Millisecond,
		Buffer:   300000,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	// Mean of the two phases is 25 Mbps; BBR should use most of both.
	if res.Utilization < 0.7 {
		t.Fatalf("BBR step utilization %.3f", res.Utilization)
	}
}

// fullScanMax is the bandwidth filter as a full scan: append the
// sample, cut the expired prefix, take the max of what is left.
type fullScanMax []bwSample

func (r *fullScanMax) add(now, window time.Duration, bw float64) float64 {
	*r = append(*r, bwSample{at: now, bw: bw})
	cut := 0
	for cut < len(*r) && now-(*r)[cut].at > window {
		cut++
	}
	*r = (*r)[cut:]
	mx := 0.0
	for _, s := range *r {
		if s.bw > mx {
			mx = s.bw
		}
	}
	return mx
}

// TestBWFilterMatchesFullScan feeds a seeded ACK stream through OnAck
// and checks after every ACK that maxBW equals a full scan of the same
// samples over the same window. The stream has tied and same-instant
// samples, a first minRTT above the 100 ms default (the window grows),
// minRTTs that later shrink it, a strictly decreasing run long enough
// to compact the deque, ACKs without a rate sample, and a SeedRate
// mid-stream.
func TestBWFilterMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(cc.Config{})
	var ref fullScanMax
	now := time.Duration(0)
	delivered := int64(0)
	compactions := 0
	for i := 0; i < 20000; i++ {
		now += time.Duration(rng.Intn(1500)) * time.Microsecond
		rtt := 150*time.Millisecond + time.Duration(rng.Intn(100))*time.Millisecond
		if i >= 12000 {
			rtt = 20*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
		}
		bw := float64(1+rng.Intn(8)) * 1e6 // few values: ties
		switch {
		case i >= 4000 && i < 11000:
			bw = 1e9 - float64(i) // strictly decreasing: the deque grows
		case rng.Intn(20) == 0:
			bw = 0 // no rate sample
		}
		if i == 11500 {
			b.SeedRate(5e7, now)
			ref = append(ref[:0], bwSample{at: now, bw: 5e7})
			if b.maxBW != 5e7 {
				t.Fatalf("maxBW %v after SeedRate, want 5e7", b.maxBW)
			}
		}
		window := time.Duration(bwWindowRTTs) * b.rtpropOr(100*time.Millisecond)
		want := b.maxBW
		if bw > 0 {
			want = ref.add(now, window, bw)
		}
		delivered += 1500
		lo := b.bwLo
		b.OnAck(&cc.Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: rtt, Acked: 1500,
			InFlight: 30000, Delivered: delivered, DeliveryRate: bw})
		if b.maxBW != want {
			t.Fatalf("ack %d: maxBW %v, full scan %v", i, b.maxBW, want)
		}
		if b.bwLo < lo && len(b.bwFilter) > 1 {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("the stream never compacted the deque")
	}
}

// TestUpdateBWNoAllocs pins the filter's steady state: once its storage
// covers the window, adding samples allocates nothing.
func TestUpdateBWNoAllocs(t *testing.T) {
	b := New(cc.Config{})
	b.minRTT = 10 * time.Millisecond // a 100 ms window: 2000 samples
	now, i := time.Duration(0), 0
	feed := func(n int) {
		for ; n > 0; n-- {
			now += 50 * time.Microsecond
			i++
			b.updateBW(now, 1e8-float64(i%8000)) // decreasing runs of 4 windows
		}
	}
	feed(20000) // warm-up: grow the storage
	if avg := testing.AllocsPerRun(5, func() { feed(20000) }); avg != 0 {
		t.Fatalf("updateBW allocates %.1f times per 20000 samples, want 0", avg)
	}
}
