package netem

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/trace"
)

// refLog is the in-flight log without a lazy head: every ACK copies the
// live entries down to index 0. It is the reference the flow's log must
// match entry for entry.
type refLog struct {
	headSeq, nextSeq int64
	pkts             []pktState
	bytes            int
	acked, lost      int64
}

func (r *refLog) send(size int, at time.Duration) {
	r.pkts = append(r.pkts, pktState{size: size, sentAt: at, deliveredAtSend: r.acked})
	r.nextSeq++
	r.bytes += size
}

// ack resolves seq and returns what the gap-loss scan declared lost.
func (r *refLog) ack(seq int64, size int) (lost int, lostSentAt time.Duration) {
	idx := int(seq - r.headSeq)
	if idx < 0 || idx >= len(r.pkts) || r.pkts[idx].done {
		return 0, 0
	}
	r.pkts[idx].done = true
	r.bytes -= size
	r.acked += int64(size)
	for i := 0; i < idx-reorderThreshold; i++ {
		if !r.pkts[i].done {
			r.pkts[i].done = true
			r.bytes -= r.pkts[i].size
			if lost == 0 {
				lostSentAt = r.pkts[i].sentAt
			}
			lost += r.pkts[i].size
		}
	}
	i := 0
	for i < len(r.pkts) && r.pkts[i].done {
		i++
	}
	n := copy(r.pkts, r.pkts[i:])
	r.pkts = r.pkts[:n]
	r.headSeq += int64(i)
	r.lost += int64(lost)
	return lost, lostSentAt
}

// timeout declares every outstanding packet lost.
func (r *refLog) timeout() (lost int, lostSentAt time.Duration) {
	for _, p := range r.pkts {
		if !p.done {
			if lost == 0 {
				lostSentAt = p.sentAt
			}
			lost += p.size
		}
	}
	r.pkts = r.pkts[:0]
	r.headSeq = r.nextSeq
	r.bytes = 0
	r.lost += int64(lost)
	return lost, lostSentAt
}

// lossLog records the losses the wrapped controller is told about.
type lossLog struct {
	cc.Controller
	losses []cc.Loss
}

func (l *lossLog) OnLoss(x *cc.Loss) {
	l.losses = append(l.losses, *x)
	l.Controller.OnLoss(x)
}

// TestInflightLogMatchesCopyDown drives one flow's in-flight log through
// a fixed packet schedule — in-order ACKs up to the compaction point, a
// gap loss whose head pop compacts the log, seeded reordering, holes,
// duplicate and late ACKs, then a retransmission timeout with a live
// head offset — and checks after every step that the live entries,
// headSeq, inflightBytes, the acked/lost byte totals and every loss
// report equal those of the copy-down log on the same schedule.
func TestInflightLogMatchesCopyDown(t *testing.T) {
	const mss = cc.DefaultMSS
	// The engine never runs, so the flow never starts: trySend is a
	// no-op and the schedule below is the only traffic. The link drops
	// every packet on ingress, so nothing but the schedule ACKs.
	n := New(Config{
		Capacity: trace.Constant(mbps(10)),
		MinRTT:   40 * time.Millisecond,
		Faults:   outage{{0, time.Hour}},
		Seed:     1,
	})
	rec := &lossLog{Controller: newAIMD(mss)}
	f := n.AddFlow(rec, 0, 0)
	ref := &refLog{}

	step := 0
	check := func(what string, lost int, lostSentAt time.Duration, timeout bool) {
		t.Helper()
		step++
		if f.headSeq != ref.headSeq || f.inflightBytes != ref.bytes ||
			f.Stats.AckedBytes != ref.acked || f.Stats.LostBytes != ref.lost {
			t.Fatalf("step %d (%s): headSeq %d inflight %d acked %d lost %d, want %d %d %d %d",
				step, what, f.headSeq, f.inflightBytes, f.Stats.AckedBytes, f.Stats.LostBytes,
				ref.headSeq, ref.bytes, ref.acked, ref.lost)
		}
		if !slices.Equal(f.inflight[f.lo:], ref.pkts) {
			t.Fatalf("step %d (%s): live in-flight entries differ from the copy-down log", step, what)
		}
		var want []cc.Loss
		if lost > 0 {
			want = []cc.Loss{{SentAt: lostSentAt, Lost: lost, InFlight: ref.bytes, Timeout: timeout}}
		}
		if !slices.Equal(rec.losses, want) {
			t.Fatalf("step %d (%s): loss reports %+v, want %+v", step, what, rec.losses, want)
		}
		rec.losses = rec.losses[:0]
	}
	send := func(k int) {
		for ; k > 0; k-- {
			at := time.Duration(f.nextSeq) * time.Microsecond
			f.sendPacket(at)
			ref.send(mss, at)
			check("send", 0, 0, false)
		}
	}
	compactions := 0
	ack := func(seq int64) {
		lo := f.lo
		p := f.topo.pool.get()
		p.Flow, p.Seq, p.Size = f, seq, mss
		f.onAck(p)
		lost, at := ref.ack(seq, mss)
		check("ack", lost, at, false)
		if lo > 0 && f.lo == 0 && len(f.inflight) > 0 {
			compactions++
		}
	}

	// In-order ACKs move the head to 1020, short of compacting.
	send(2050)
	for s := int64(0); s < 1020; s++ {
		ack(s)
	}
	if f.lo != 1020 || compactions != 0 {
		t.Fatalf("head offset %d after 1020 in-order ACKs, want 1020", f.lo)
	}
	// A hole at 1020 holds the head while 1021..1023 resolve; the ACK
	// of 1024 declares 1020 lost, the head jumps to 1025 and the log
	// compacts in the same ACK.
	for s := int64(1021); s <= 1024; s++ {
		ack(s)
	}
	if compactions != 1 || len(f.inflight) != 2050-1025 {
		t.Fatalf("after the gap loss: head offset %d, %d entries; want a compacted log of %d",
			f.lo, len(f.inflight), 2050-1025)
	}

	// Seeded churn: sends interleaved with ACKs that reorder (within and
	// beyond the reorder threshold), skip packets, and repeat.
	rng := rand.New(rand.NewSource(1))
	next := int64(1025)
	for round := 0; round < 400; round++ {
		send(rng.Intn(70))
		for k := rng.Intn(60); k > 0 && next < f.nextSeq; k-- {
			switch r := rng.Intn(100); {
			case r < 3: // never ACKed: a hole
			case r < 10 && next+1 < f.nextSeq: // reordered pair
				ack(next + 1)
				ack(next)
				next++
			case r < 12: // duplicate of an older ACK, or a late one
				ack(next - int64(rng.Intn(8)) - 1)
				ack(next)
			case r < 14 && next+6 < f.nextSeq: // reordered past the threshold
				ack(next + 6)
				ack(next)
			default:
				ack(next)
			}
			next++
		}
	}
	if compactions < 4 {
		t.Fatalf("the churn compacted the log %d times in all, want at least 4", compactions)
	}
	if f.lo == 0 {
		// Leave a live head offset for the timeout: ACK a few in order.
		send(20)
		for h, s := f.headSeq, f.headSeq; s < h+5; s++ {
			ack(s)
		}
	}
	if f.lo == 0 {
		t.Fatal("schedule reached the timeout with head offset 0")
	}

	// The timeout resolves the live entries only and resets the log.
	f.onRTO()
	lost, at := ref.timeout()
	check("timeout", lost, at, true)
	if f.headSeq != f.nextSeq || f.inflightBytes != 0 || f.lo != 0 || len(f.inflight) != 0 {
		t.Fatalf("after the timeout: headSeq %d (next %d), inflight %d, head offset %d, %d entries",
			f.headSeq, f.nextSeq, f.inflightBytes, f.lo, len(f.inflight))
	}
	send(10)
	for h, s := f.headSeq, f.headSeq; s < h+10; s++ {
		ack(s)
	}
	if f.inflightBytes != 0 || f.lo != 0 || len(f.inflight) != 0 {
		t.Fatalf("after every post-timeout packet was ACKed: inflight %d, head offset %d, %d entries",
			f.inflightBytes, f.lo, len(f.inflight))
	}
}
