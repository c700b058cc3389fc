package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"libra/internal/telemetry"
)

// rigEvents is a short stream whose two silent cycles after a decision
// trip the no-ACK-streak detector on the last event.
var rigEvents = []telemetry.Event{
	{T: 1e6, Type: telemetry.TypeEnqueue, Flow: 0, Link: "l0", Seq: 1, Bytes: 1500, Queue: 1500},
	{T: 2e6, Type: telemetry.TypeQueue, Flow: -1, Link: "l0", Queue: 1500, Rate: 6e6},
	{T: 3e6, Type: telemetry.TypeDecision, Flow: 0, Winner: "x_prev", XPrev: 6e6, UPrev: 1.1, RTT: 40e6},
	{T: 4e6, Type: telemetry.TypeNoAck, Flow: 0, XPrev: 6e6},
	{T: 5e6, Type: telemetry.TypeNoAck, Flow: 0, XPrev: 6e6},
}

// openRig opens a Rig with every file sink pointed into a fresh
// temporary directory and emits rigEvents through its tracer.
func openRig(t *testing.T) (*Rig, string) {
	t.Helper()
	dir := t.TempDir()
	fs := flag.NewFlagSet("rig", flag.ContinueOnError)
	r := NewRig(fs, "the run")
	err := fs.Parse([]string{
		"-flight-out", filepath.Join(dir, "flight"),
		"-timeseries-out", filepath.Join(dir, "ts.json"),
		"-metrics-out", filepath.Join(dir, "metrics.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := r.Open(1, filepath.Join(dir, "events.jsonl"), "", nil)
	if rc.Health == nil || rc.Tracer == nil {
		t.Fatalf("Open left Health=%v Tracer=%v unwired", rc.Health, rc.Tracer)
	}
	for _, e := range rigEvents {
		ev := e
		rc.Tracer.Emit(&ev)
	}
	return r, dir
}

// readEvents decodes a JSONL file after checking it against the schema.
func readEvents(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateStream(bytes.NewReader(raw), path); err != nil {
		t.Fatal(err)
	}
	var out []telemetry.Event
	dec := telemetry.NewDecoder(bytes.NewReader(raw))
	for {
		e, err := dec.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		e.V = 0
		out = append(out, e)
	}
}

// checkSinks asserts every file sink of an openRig run was flushed.
func checkSinks(t *testing.T, dir string) {
	t.Helper()
	if got := readEvents(t, filepath.Join(dir, "events.jsonl")); !reflect.DeepEqual(got, rigEvents) {
		t.Errorf("trace holds %+v, want %+v", got, rigEvents)
	}
	var ts telemetry.TSSnapshot
	decodeJSON(t, filepath.Join(dir, "ts.json"), &ts)
	if len(ts.Series) == 0 {
		t.Error("time-series snapshot has no series")
	}
	var snap telemetry.Snapshot
	decodeJSON(t, filepath.Join(dir, "metrics.json"), &snap)
	if n := snap.Counters["libra_flight_dumps_total"]; n != 1 {
		t.Errorf("libra_flight_dumps_total = %d, want 1", n)
	}
	if _, ok := snap.Gauges["libra_health_goroutines"]; !ok {
		t.Error("metrics snapshot lacks the final health sample")
	}
}

func decodeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestRigClose(t *testing.T) {
	r, dir := openRig(t)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	checkSinks(t, dir)

	// The dump was cut by the anomaly tap's callback, so it holds the
	// silent cycle that tripped the detector only if the flight
	// recorder saw that event first.
	dump := readEvents(t, filepath.Join(dir, "flight", "flight-0-5000000.jsonl"))
	trigger := rigEvents[len(rigEvents)-1]
	if n := len(dump); n < 2 || dump[n-2] != trigger || dump[n-1].Reason != telemetry.AnomalyNoAckStreak {
		t.Errorf("dump = %+v, want it to end with the trigger %+v and its anomaly marker", dump, trigger)
	}

	before, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "ts.json")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if _, err := os.Stat(filepath.Join(dir, "ts.json")); !os.IsNotExist(err) || !bytes.Equal(before, after) {
		t.Error("second Close wrote the snapshots again")
	}
}

// withExitHook swaps the process exit for a recorder for one test.
func withExitHook(t *testing.T) *[]int {
	t.Helper()
	var codes []int
	exit = func(code int) { codes = append(codes, code) }
	t.Cleanup(func() { exit = os.Exit })
	return &codes
}

func TestRigFatalFlushes(t *testing.T) {
	codes := withExitHook(t)
	r, dir := openRig(t)
	r.Fatal(errors.New("boom"))
	if !reflect.DeepEqual(*codes, []int{1}) {
		t.Fatalf("exit codes = %v, want [1]", *codes)
	}
	checkSinks(t, dir)
}

func TestRigFatalBeforeOpen(t *testing.T) {
	codes := withExitHook(t)
	NewRig(flag.NewFlagSet("rig", flag.ContinueOnError), "the run").Fatal(errors.New("bad flag"))
	if !reflect.DeepEqual(*codes, []int{1}) {
		t.Fatalf("exit codes = %v, want [1]", *codes)
	}
}

// TestRigFlags pins the shared flags' names, defaults and help text to
// what the CLIs carried before they shared the Rig; their -h output
// must not move.
func TestRigFlags(t *testing.T) {
	for _, after := range []string{"the run", "the runs", "training"} {
		fs := flag.NewFlagSet("rig", flag.ContinueOnError)
		NewRig(fs, after)
		got := map[string][2]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = [2]string{f.DefValue, f.Usage} })
		want := map[string][2]string{
			"parallel":       {"0", "sweep worker count (0 = GOMAXPROCS)"},
			"metrics-out":    {"", "write a metrics snapshot to this file after " + after},
			"metrics-format": {"auto", "metrics snapshot format: auto|json|prom"},
			"pprof":          {"", "serve net/http/pprof and /metrics on this address"},
			"flight-out":     {"", "directory for flight-recorder dumps on detected anomalies (empty = off)"},
			"timeseries-out": {"", "write the downsampled time-series snapshot (JSON) to this file after the run"},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NewRig(%q) flags = %v, want %v", after, got, want)
		}
	}
}

// With no sink flags set, Open wires only the worker count, the
// registry and the health sampler.
func TestRigOpenWorkers(t *testing.T) {
	fs := flag.NewFlagSet("rig", flag.ContinueOnError)
	r := NewRig(fs, "the run")
	if err := fs.Parse([]string{"-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	rc := r.Open(7, "", "", nil)
	defer r.Close()
	if rc.Workers != 3 || rc.Seed != 7 || rc.Health == nil || rc.Metrics == nil || rc.Tracer != nil || rc.Live != nil {
		t.Errorf("Open = {Workers %d Seed %d Metrics %v Tracer %v Live %v}", rc.Workers, rc.Seed, rc.Metrics, rc.Tracer, rc.Live)
	}
}
