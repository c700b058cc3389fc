package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/telemetry"
)

// Rig is the observability harness of the run-driving CLIs: NewRig
// registers the shared flags, Open builds the run context with every
// sink those flags ask for, Close flushes the sinks, and Fatal flushes
// them before exiting on an error. -trace-out and -http are not
// registered here because not every CLI carries them; each CLI passes
// its own flag's value to Open ("" = off).
type Rig struct {
	parallel                                            *int
	metricsOut, metricsFmt, pprofAddr, flightOut, tsOut *string

	rc                       *exp.RunContext
	ts                       *telemetry.TSCollector
	closeTracer, closeFlight func() error
	stopHealth               func()
	closed                   bool
}

// exit is os.Exit, swapped out by tests of the Fatal path.
var exit = os.Exit

// NewRig registers the shared observability flags on fs. after ends
// the -metrics-out help text ("write a metrics snapshot to this file
// after <after>").
func NewRig(fs *flag.FlagSet, after string) *Rig {
	return &Rig{
		parallel:   fs.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS)"),
		metricsOut: fs.String("metrics-out", "", "write a metrics snapshot to this file after "+after),
		metricsFmt: fs.String("metrics-format", "auto", "metrics snapshot format: auto|json|prom"),
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof and /metrics on this address"),
		flightOut:  fs.String("flight-out", "", "directory for flight-recorder dumps on detected anomalies (empty = off)"),
		tsOut:      fs.String("timeseries-out", "", "write the downsampled time-series snapshot (JSON) to this file after the run"),
	}
}

// Open builds the run context for seed with Workers, Tracer, Health
// and Live wired. The tracer fans out, in order, to the -trace-out
// file, the flight recorder and its anomaly tap, the time-series
// collector, and the dashboard's analyzer. traceOut and httpAddr are
// the CLI's own -trace-out and -http values; topo shapes the
// dashboard's /topo view (nil = single bottleneck). An error opening
// a sink exits through Fatal.
func (r *Rig) Open(seed int64, traceOut, httpAddr string, topo *exp.TopoSpec) *exp.RunContext {
	rc := exp.NewRunContext(seed)
	rc.Workers = *r.parallel
	rc.WithDefaults()
	flight, closeFlight, err := OpenFlight(*r.flightOut, rc.Metrics)
	if err != nil {
		r.Fatal(err)
		return nil
	}
	tracer, closeTracer, err := openTracer(traceOut)
	if err != nil {
		r.Fatal(err)
		return nil
	}
	rc.Tracer = telemetry.Multi(tracer, flight)
	// The time-series collector taps the same stream whenever anything
	// consumes it: a snapshot file, the debug server, or the dashboard.
	if *r.tsOut != "" || *r.pprofAddr != "" || httpAddr != "" {
		r.ts = telemetry.NewTSCollector(0, 0)
		rc.Tracer = telemetry.Multi(rc.Tracer, r.ts)
	}
	rc.Health = telemetry.NewHealth(rc.Metrics)
	r.stopHealth = rc.Health.Start(time.Second)
	serve(*r.pprofAddr, debugMux(rc.Metrics, r.ts))
	if live := startDashboard(httpAddr, rc.Metrics, r.ts, topo); live != nil {
		rc.Tracer = telemetry.Multi(rc.Tracer, live)
		rc.Live = live
		fmt.Printf("live dashboard: http://%s/\n", httpAddr)
	}
	r.rc, r.closeTracer, r.closeFlight = rc, closeTracer, closeFlight
	return rc
}

// Close flushes the sinks in a fixed order: the trace file's tail,
// the flight recorder, a last health sample, the libra_ts_* gauges,
// then the -timeseries-out and -metrics-out snapshots. The metrics
// snapshot comes last so it holds the final health and time-series
// gauges. Every step runs even after an earlier one fails; the errors
// come back joined. Close before Open, or a second Close, is a no-op.
func (r *Rig) Close() error {
	if r.rc == nil || r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	if err := r.closeTracer(); err != nil {
		errs = append(errs, fmt.Errorf("trace-out: %w", err))
	}
	if err := r.closeFlight(); err != nil {
		errs = append(errs, fmt.Errorf("flight-out: %w", err))
	}
	r.stopHealth()
	if r.ts != nil {
		r.ts.ExportProm(r.rc.Metrics)
	}
	if err := writeTimeSeries(r.ts, *r.tsOut); err != nil {
		errs = append(errs, fmt.Errorf("timeseries-out: %w", err))
	}
	if err := writeMetrics(r.rc.Metrics, *r.metricsOut, *r.metricsFmt); err != nil {
		errs = append(errs, fmt.Errorf("metrics-out: %w", err))
	}
	return errors.Join(errs...)
}

// Fatal prints err, closes every open sink so the trace tail, flight
// dumps and snapshots still land, and exits with status 1.
func (r *Rig) Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	if err := r.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	exit(1)
}

// openTracer opens a JSONL event sink at path. It returns a nil tracer
// (and a no-op closer) when path is empty. The closer flushes the tail
// and prints the event count.
func openTracer(path string) (telemetry.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	rec := telemetry.NewRecorder(f)
	return rec, func() error {
		if err := rec.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", rec.Events(), path)
		return nil
	}, nil
}

// OpenFlight builds an always-on flight recorder dumping anomaly
// snapshots into dir (created if missing), followed by its anomaly
// tap; counters register into reg when non-nil. Empty dir returns a
// nil tracer and a no-op closer, so callers can wire the result
// unconditionally. The closer reports how many dumps were written.
func OpenFlight(dir string, reg *telemetry.Registry) (telemetry.Tracer, func() error, error) {
	if dir == "" {
		return nil, func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	fl := telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: dir, Metrics: reg})
	// Order matters: the flight recorder precedes the anomaly tap so a
	// detector-triggered dump already holds the event that tripped it.
	return telemetry.Multi(fl, AnomalyTap(fl)), func() error {
		if n := fl.Dumps(); n > 0 {
			fmt.Printf("flight recorder: %d dump(s) in %s\n", n, dir)
		}
		return fl.Err()
	}, nil
}

// AnomalyTap returns a live analyzer tap that exists only to run the
// streaming anomaly detectors (rate collapse, no-ACK streaks, utility
// regression) and trigger flight dumps when one fires; nil when fl is
// nil. Compose it AFTER the flight recorder in telemetry.Multi so the
// triggering event is already in the ring when the dump is cut. The
// detectors are purely event-driven, so dump triggers inherit the
// event stream's worker-count independence.
func AnomalyTap(fl *telemetry.FlightRecorder) telemetry.Tracer {
	if fl == nil {
		return nil
	}
	return analyze.New(analyze.Config{
		OnAnomaly: func(flow int, t int64, reason string) {
			fl.TriggerDump(flow, t, reason)
		},
	})
}

// writeMetrics exports a registry snapshot to path. Format "auto"
// derives from the extension: .json → JSON, anything else → Prometheus
// text exposition. Empty path is a no-op.
func writeMetrics(reg *telemetry.Registry, path, format string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "json":
		return reg.WriteJSON(f)
	case "prom":
		return reg.WritePrometheus(f)
	case "auto":
		if strings.HasSuffix(path, ".json") {
			return reg.WriteJSON(f)
		}
		return reg.WritePrometheus(f)
	}
	return fmt.Errorf("unknown metrics format %q (want auto, json or prom)", format)
}

// writeTimeSeries writes ts's snapshot JSON to path. Either a nil
// collector or an empty path is a no-op.
func writeTimeSeries(ts *telemetry.TSCollector, path string) error {
	if ts == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ts.WriteJSON(f)
}
