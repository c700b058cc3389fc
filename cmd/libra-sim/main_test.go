package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the CLI itself when runCLI re-executes the test
// binary, so tests can drive main as a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LIBRA_CLI_ARGS"); ok {
		os.Args = append([]string{"libra-sim"}, strings.Fields(args)...)
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
