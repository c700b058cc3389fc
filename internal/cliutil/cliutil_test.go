package cliutil

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"libra/internal/telemetry"
)

// The debug mux must carry the explicit pprof routes and /metrics —
// and nothing registered on http.DefaultServeMux.
func TestDebugMuxRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c_total", "a counter").Add(3)
	mux := debugMux(reg, nil)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	if w := get("/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", w.Code)
	}
	if w := get("/debug/pprof/goroutine?debug=1"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/goroutine = %d, want 200", w.Code)
	}
	w := get("/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), "c_total 3") {
		t.Errorf("/metrics missing counter:\n%s", w.Body.String())
	}

	// Isolation both ways: a route on the default mux must not appear
	// on the debug mux.
	http.DefaultServeMux.HandleFunc("/cliutil-test-leak", func(http.ResponseWriter, *http.Request) {})
	if w := get("/cliutil-test-leak"); w.Code == http.StatusOK {
		t.Error("default-mux route leaked into the debug mux")
	}
}

// debugMux without a registry still serves pprof but not /metrics.
func TestDebugMuxNoRegistry(t *testing.T) {
	mux := debugMux(nil, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code == http.StatusOK {
		t.Fatalf("GET /metrics without a registry = %d, want non-200", w.Code)
	}
}
