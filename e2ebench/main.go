// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed host-time budget, checks the
// simulated outputs, and prints every metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host cost and
// simulated outputs, measured with tracing off). With -trace 1 the
// workload also runs traced, and the metrics attribute host time to
// the repository's layers. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload bulk-bdp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; inputs are a pure function of it")
		seconds = flag.Float64("seconds", 10, "host seconds the measured phase runs for")
		traced  = flag.Int("trace", 0, "1 runs the traced attribution instead of the end-to-end measurement")
		root    = flag.String("root", ".", "repository checkout (models/ is read from here)")
		out     = flag.String("out", "", "directory for scratch files and spans (default <root>/.bench_build/e2ebench)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, root, out string) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if out == "" {
		out = filepath.Join(root, ".bench_build", "e2ebench")
	}
	env := benchEnv{root: root, tmp: filepath.Join(out, name), workers: workers()}
	if err := os.MkdirAll(env.tmp, 0o755); err != nil {
		return err
	}
	hj, err := json.Marshal(hostInfo(seed))
	if err != nil {
		return err
	}
	fmt.Printf("host: %s\n", hj)
	fmt.Printf("workload %s: %s\n", def.name, def.why)

	var res result
	if traced {
		res, err = measureTraced(def, env, seed, seconds, filepath.Join(out, name+"-spans.jsonl"))
	} else {
		res, err = measure(def, env, seed, seconds)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

// benchEnv is where a workload reads and writes.
type benchEnv struct {
	root    string // repository checkout
	tmp     string // scratch directory for sink output
	workers int    // worker goroutines for sweeps
}

// workers is the sweep width: never more than the machine's CPUs.
func workers() int {
	return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
}

// host is printed with every result, so numbers from different
// machines are never compared unknowingly.
type host struct {
	Nproc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
}

func hostInfo(seed int64) host {
	return host{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers(),
		Go:          runtime.Version(),
		CPU:         cpuModel(),
		Seed:        seed,
		HeldOutSeed: heldOut(seed),
	}
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heldOut is the second seed every run also checks: a seed the
// benchmark was not tuned on.
func heldOut(seed int64) int64 { return seed + 1_000_003 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) print(w *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-28s %16.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "fail_frac %g (%d of %d operations)\n", frac, r.Failed, r.Attempted)
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}
