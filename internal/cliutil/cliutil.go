// Package cliutil holds the observability plumbing shared by the
// cmd/ binaries: the Rig that opens and flushes their sinks (JSONL
// trace, flight recorder, time series, metrics snapshot), and the
// pprof + /metrics debug server with the live dashboard.
package cliutil

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/telemetry"
)

// healthHandler serves the libra_health_* gauges as a flat JSON object
// for the dashboard's health line.
func healthHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := reg.Snapshot()
		out := make(map[string]float64, 8)
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "libra_health_") {
				out[strings.TrimPrefix(name, "libra_health_")] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(out)
	})
}

// getOnly rejects everything but GET/HEAD with 405 so the read-only
// JSON endpoints can't be POSTed to by accident.
func getOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// debugMux returns a dedicated mux wired with the pprof handlers and,
// when reg is non-nil, the registry at /metrics. A non-nil ts adds
// /timeseries (the full downsampled-series snapshot as JSON) and
// refreshes the libra_ts_* gauges into reg on every /metrics scrape,
// so Prometheus always sees the latest buckets. Routes are explicit
// rather than inherited from http.DefaultServeMux, so importing this
// package never leaks debug handlers into an application's default
// mux (and nothing another package hangs on the default mux leaks
// into the debug server). Callers may add their own routes — the live
// flow dashboard does — before passing the mux to serve.
func debugMux(reg *telemetry.Registry, ts *telemetry.TSCollector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		metrics := reg.Handler()
		if ts != nil {
			inner := metrics
			metrics = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ts.ExportProm(reg)
				inner.ServeHTTP(w, r)
			})
		}
		mux.Handle("/metrics", getOnly(metrics))
		mux.Handle("/health", getOnly(healthHandler(reg)))
	}
	if ts != nil {
		mux.Handle("/timeseries", getOnly(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Cache-Control", "no-store")
			if err := ts.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})))
	}
	return mux
}

// TopoLinkView is one /topo link: the spec's geometry joined with the
// collector's live stats (zero-valued until traffic reaches the link).
type TopoLinkView struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	telemetry.LinkLive
}

// TopoView is the /topo JSON body the dashboard weathermap renders.
type TopoView struct {
	Name  string         `json:"name,omitempty"`
	Nodes []string       `json:"nodes"`
	Links []TopoLinkView `json:"links"`
}

// buildTopoView joins a topology spec with the collector's live link
// stats. A nil topo synthesises the two-node single-bottleneck shape
// so runs without -topo still get a (one-link) weathermap.
func buildTopoView(ts *telemetry.TSCollector, topo *exp.TopoSpec) TopoView {
	live := map[string]telemetry.LinkLive{}
	for _, ll := range ts.LinksLive() {
		live[ll.Label] = ll
	}
	if topo == nil {
		v := TopoView{Nodes: []string{"src", "dst"}}
		labels := make([]string, 0, len(live))
		for label := range live {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			v.Links = append(v.Links, TopoLinkView{From: "src", To: "dst", LinkLive: live[label]})
		}
		return v
	}
	v := TopoView{Name: topo.Name, Nodes: topo.Nodes}
	for _, l := range topo.Links {
		lv := TopoLinkView{From: l.From, To: l.To}
		if ll, ok := live[l.Label]; ok {
			lv.LinkLive = ll
		} else {
			lv.Label = l.Label
			lv.CapacityMbps = l.CapMbps
		}
		v.Links = append(v.Links, lv)
	}
	return v
}

// topoHandler serves the live topology view as JSON.
func topoHandler(ts *telemetry.TSCollector, topo *exp.TopoSpec) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildTopoView(ts, topo))
	})
}

// serve serves mux on addr in the background for the life of the
// process. Empty addr is a no-op.
func serve(addr string, mux *http.ServeMux) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
		}
	}()
}

// startDashboard serves the live flow dashboard — /flows JSON
// snapshots and a polling HTML view at / — plus pprof and /metrics on
// addr, and returns the analyzer the caller must tap into the run's
// event stream (telemetry.Multi with any file recorder) and register
// flow names on (RunContext.Live). A non-nil ts additionally serves
// /timeseries and /topo, and the HTML view renders the topology
// weathermap from the latter (topo may be nil: single-bottleneck runs
// get a synthetic two-node view). Nil when addr is empty.
func startDashboard(addr string, reg *telemetry.Registry, ts *telemetry.TSCollector, topo *exp.TopoSpec) *analyze.Analyzer {
	if addr == "" {
		return nil
	}
	a := analyze.New(analyze.Config{})
	mux := debugMux(reg, ts)
	analyze.ServeLive(mux, a)
	if ts != nil {
		mux.Handle("/topo", getOnly(topoHandler(ts, topo)))
	}
	serve(addr, mux)
	return a
}
