package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"libra/internal/exp"
)

// TestMain runs the CLI itself when runCLI re-executes the test
// binary, so tests can drive main as a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LIBRA_CLI_ARGS"); ok {
		os.Args = append([]string{"libra-bench"}, strings.Fields(args)...)
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

func TestHelp(t *testing.T) { checkHelp(t, "help.txt") }

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		all  bool
		run  string
		want []string
		err  string
	}{
		{name: "one", run: "fig2a", want: []string{"fig2a"}},
		{name: "order-kept", run: "fig9, fig2a", want: []string{"fig9", "fig2a"}},
		{name: "all-wins", all: true, run: "nope", want: ids(exp.All())},
		{name: "unknown-last", run: "fig9,nope", err: `unknown experiment "nope" (use -list)`},
		{name: "unknown-untrimmed", run: "fig9, nope", err: `unknown experiment " nope" (use -list)`},
		{name: "empty-id", run: "fig9,", err: `unknown experiment "" (use -list)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolve(tc.all, tc.run)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("resolve error = %v, want %s", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(got), tc.want) {
				t.Errorf("resolve = %v, want %v", ids(got), tc.want)
			}
		})
	}
}

func ids(es []exp.Experiment) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.ID)
	}
	return out
}

// An unknown ID anywhere in -run must fail before any experiment runs
// or any sink creates its file.
func TestUnknownExperimentOpensNothing(t *testing.T) {
	dir := t.TempDir()
	out, code := runCLI(t, dir, "-run", "fig9,nope", "-quick",
		"-trace-out", "t.jsonl", "-metrics-out", "m.prom", "-flight-out", "fl", "-timeseries-out", "ts.json")
	if code != 1 || out != "unknown experiment \"nope\" (use -list)\n" {
		t.Errorf("exit %d, output %q", code, out)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("files created: %v", left)
	}
}
