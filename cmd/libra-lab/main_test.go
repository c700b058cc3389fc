package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"libra/internal/telemetry"
)

// TestMain runs the CLI itself when runCLI re-executes the test
// binary, so tests can drive main as a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LIBRA_CLI_ARGS"); ok {
		os.Args = append([]string{"libra-lab"}, strings.Fields(args)...)
		// Drop the -test.* flags so main sees a fresh process's flag set.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with space-free args in dir and returns its
// combined output and exit status.
func runCLI(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-test.run=^$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LIBRA_CLI_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// checkHelp compares the CLI's -h output with the golden recorded
// before the observability flags moved into cliutil.Rig.
func checkHelp(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := runCLI(t, t.TempDir(), append(args, "-h")...); got != string(want) {
		t.Errorf("%v -h output changed:\n%s\nwant:\n%s", args, got, want)
	}
}

func TestHelp(t *testing.T) {
	for _, sub := range []string{"search", "replay", "tournament"} {
		checkHelp(t, "help-"+sub+".txt", sub)
	}
}

// A failure after the sinks opened (here: -specs-dir names a file)
// still flushes every sink: the trace is the same complete, valid
// stream a clean run writes, and the snapshots are written.
func TestFatalFlushesSinks(t *testing.T) {
	sinks := []string{"-trace-out", "t.jsonl", "-metrics-out", "m.json", "-timeseries-out", "ts.json", "-flight-out", "fl"}
	run := []string{"tournament", "-cca", "cubic", "-budget", "2", "-dur", "1s"}
	clean, failed := t.TempDir(), t.TempDir()
	if out, code := runCLI(t, clean, append(run, sinks...)...); code != 0 {
		t.Fatalf("clean run: exit %d\n%s", code, out)
	}
	if err := os.WriteFile(filepath.Join(failed, "taken"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, failed, append(append(run, "-specs-dir", "taken"), sinks...)...)
	if code != 1 || !strings.Contains(out, "not a directory") {
		t.Fatalf("exit %d, want 1 with the mkdir error\n%s", code, out)
	}
	want, err := os.ReadFile(filepath.Join(clean, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(failed, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateStream(bytes.NewReader(got), "t.jsonl"); err != nil {
		t.Error(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace after the failure has %d bytes, the clean run's %d", len(got), len(want))
	}
	for _, f := range []string{"m.json", "ts.json"} {
		var v any
		if raw, err := os.ReadFile(filepath.Join(failed, f)); err != nil || json.Unmarshal(raw, &v) != nil {
			t.Errorf("%s not written or not JSON (%v)", f, err)
		}
	}
}
