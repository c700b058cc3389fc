package netem

import (
	"slices"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/sim"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// outage drops every packet offered to the link during any of its
// [start, end) windows.
type outage [][2]time.Duration

func (outage) Bind(*sim.Engine, telemetry.Tracer) {}
func (outage) RateScale(time.Duration) float64    { return 1 }

func (o outage) Ingress(now time.Duration, _ int64, _ int) Verdict {
	for _, w := range o {
		if now >= w[0] && now < w[1] {
			return Verdict{Drop: true, Reason: telemetry.ReasonBlackout}
		}
	}
	return Verdict{}
}

// timeoutLog records the instant of every retransmission timeout the
// wrapped controller is told about.
type timeoutLog struct {
	cc.Controller
	at []time.Duration
}

func (t *timeoutLog) OnLoss(l *cc.Loss) {
	if l.Timeout {
		t.at = append(t.at, l.Now)
	}
	t.Controller.OnLoss(l)
}

// rtoInstants runs one AIMD flow on [0, stop) over a 10 Mbps, 40 ms
// path with the given outages and returns its timeout instants.
func rtoInstants(buffer int, stop time.Duration, o outage) []time.Duration {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: buffer,
		Faults:      o,
		Seed:        1,
	})
	log := &timeoutLog{Controller: newAIMD(cc.DefaultMSS)}
	n.AddFlow(log, 0, stop)
	n.Run(10 * time.Second)
	return log.at
}

// TestRTOInstants pins the exact retransmission-timeout instants of two
// runs that exercise every way the RTO deadline moves:
//
//   - blackout then recovery: timeouts back off through the first
//     outage, the first fresh ACK after it resets the backoff so the
//     deadline moves earlier, and a second outage must then time out
//     at that earlier deadline, not the backed-off one;
//   - stop with packets in flight: the tail sent just before the stop
//     is lost, and the late ACKs of the packets queued ahead of it
//     re-arm the RTO after the flow stopped.
func TestRTOInstants(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	cases := []struct {
		name   string
		buffer int
		stop   time.Duration
		outage outage
		want   []time.Duration
	}{
		{
			name:   "blackout-recovery",
			buffer: 60000,
			outage: outage{{time.Second, 2500 * time.Millisecond}, {4300 * time.Millisecond, 6 * time.Second}},
			want: []time.Duration{
				1242 * ms, 1642 * ms, 2442 * ms, 4042 * ms, // backing off through the first outage
				4537600 * us, 4937600 * us, 5737600 * us, 7337600 * us, // reset by the recovery ACKs
			},
		},
		{
			name:   "stop-in-flight",
			buffer: 200000,
			stop:   2 * time.Second,
			outage: outage{{1990 * time.Millisecond, 3 * time.Second}},
			want:   []time.Duration{2250 * ms},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := rtoInstants(c.buffer, c.stop, c.outage); !slices.Equal(got, c.want) {
				t.Fatalf("timeouts at %v, want %v", got, c.want)
			}
		})
	}
}
