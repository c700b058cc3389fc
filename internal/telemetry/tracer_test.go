package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// randomEvent builds an arbitrary event; each optional field is present
// with probability ~1/2 so omitempty paths get exercised.
func randomEvent(rng *rand.Rand) Event {
	types := []Type{TypeStage, TypeEarlyExit, TypeDecision, TypeNoAck,
		TypeEnqueue, TypeDrop, TypeQueue, TypeAction, TypeSpan, TypeAnomaly}
	strs := []string{"", "explore", "eval-1", "tail", "channel", "aqm", "x_prev", "x_cl", "x_rl"}
	names := []string{"", "cycle", "flow:c-libra", "scenario:blackout", "experiment:figa1"}
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		// Mix magnitudes, signs and non-round values.
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-3))
	}
	n := func() int64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Int63n(1 << 40)
	}
	return Event{
		T:      rng.Int63n(300e9),
		Type:   types[rng.Intn(len(types))],
		Flow:   rng.Intn(5) - 1,
		Stage:  strs[rng.Intn(len(strs))],
		Reason: strs[rng.Intn(len(strs))],
		Winner: strs[rng.Intn(len(strs))],
		Seq:    n(),
		Bytes:  n(),
		Queue:  n(),
		Rate:   f(), XPrev: f(), XCl: f(), XRl: f(),
		UPrev: f(), UCl: f(), URl: f(),
		Action: f(), Reward: f(), FMin: f(), FMean: f(), FMax: f(),
		RTT: n(), Thr: f(), Grad: f(), Loss: f(),
		Name: names[rng.Intn(len(names))],
		V:    rng.Intn(SchemaVersion + 1),
	}
}

// TestEventRoundTrip is the encode→decode→equal property test over the
// recorder's JSONL stream: whatever the emitters write, the decoder
// must read back exactly.
func TestEventRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	events := make([]Event, n)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := range events {
		events[i] = randomEvent(rng)
		rec.Emit(&events[i])
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if rec.Events() != n {
		t.Fatalf("recorder counted %d events, want %d", rec.Events(), n)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d events, want %d", len(got), n)
	}
	for i := range events {
		// Recorder stamps SchemaVersion on version-less events; the
		// round-trip expectation must account for that.
		if events[i].V == 0 {
			events[i].V = SchemaVersion
		}
		if !reflect.DeepEqual(events[i], got[i]) {
			t.Fatalf("event %d did not round-trip:\nsent %+v\ngot  %+v", i, events[i], got[i])
		}
	}
}

// TestEventJSONMatchesStdlib pins the hand-rolled encoder to the
// encoding/json view of the struct tags.
func TestEventJSONMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		e := randomEvent(rng)
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got := e.AppendJSON(nil)
		if string(got) != string(want) {
			t.Fatalf("encoding mismatch:\nhand %s\nstd  %s", got, want)
		}
	}
}

// TestEventNonFinite checks NaN/Inf degrade to null, not invalid JSON.
func TestEventNonFinite(t *testing.T) {
	e := Event{T: 1, Type: TypeDecision, UPrev: math.NaN(), UCl: math.Inf(1), URl: math.Inf(-1)}
	line := e.AppendJSON(nil)
	var back Event
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("non-finite event produced invalid JSON %s: %v", line, err)
	}
	if back.UPrev != 0 || back.UCl != 0 || back.URl != 0 {
		t.Fatalf("non-finite fields decoded as %+v, want zeros", back)
	}
}

// TestEventEscaping exercises the slow string path.
func TestEventEscaping(t *testing.T) {
	e := Event{T: 2, Type: TypeDrop, Reason: "we\"ird\nreason\\π"}
	var back Event
	if err := json.Unmarshal(e.AppendJSON(nil), &back); err != nil {
		t.Fatalf("escaped event invalid: %v", err)
	}
	if back.Reason != e.Reason {
		t.Fatalf("reason round-trip: got %q want %q", back.Reason, e.Reason)
	}
}

// TestDecoderSkipsBlanksAndReportsLine checks decoder ergonomics.
func TestDecoderSkipsBlanksAndReportsLine(t *testing.T) {
	in := "{\"t\":1,\"type\":\"queue\",\"flow\":-1}\n\n{\"t\":2,\"type\":\"queue\",\"flow\":-1}\n"
	evs, err := ReadAll(strings.NewReader(in))
	if err != nil || len(evs) != 2 {
		t.Fatalf("got %d events, err %v", len(evs), err)
	}
	_, err = ReadAll(strings.NewReader("{\"t\":1,\"type\":\"queue\",\"flow\":-1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered decode error, got %v", err)
	}
}

// TestReplayFileNamesFileAndLine checks that ReplayFile hands over the
// events before a bad line and that its error names file and line.
func TestReplayFileNamesFileAndLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	in := "{\"t\":1,\"type\":\"queue\",\"flow\":-1}\n\nnot json\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := ReplayFile(path, func(*Event) { n++ })
	if n != 1 || err == nil || !strings.Contains(err.Error(), path+": telemetry: line 3") {
		t.Fatalf("got %d events, err %v; want 1 event and an error naming %s line 3", n, err, path)
	}
}

// failWriter fails after the first write.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestRecorderPropagatesWriteError checks the first write error is
// sticky and surfaced by Flush/Close.
func TestRecorderPropagatesWriteError(t *testing.T) {
	rec := NewRecorder(&failWriter{})
	big := Event{T: 1, Type: TypeStage, Stage: strings.Repeat("x", 4000)}
	for i := 0; i < 64; i++ { // cross the flush threshold at least twice
		rec.Emit(&big)
	}
	if err := rec.Flush(); err == nil {
		// first flush succeeded; force another
		for i := 0; i < 64; i++ {
			rec.Emit(&big)
		}
		if err := rec.Close(); err == nil {
			t.Fatal("write error was swallowed")
		}
	}
}

// TestNopTracer checks the disabled default does nothing and the
// Enabled helper handles nil.
func TestNopTracer(t *testing.T) {
	if Enabled(nil) || Enabled(Nop{}) {
		t.Fatal("nil/Nop tracers must report disabled")
	}
	Nop{}.Emit(&Event{}) // must not panic
	var rec *Recorder
	_ = rec // Recorder must be constructed via NewRecorder; zero value unused
}
