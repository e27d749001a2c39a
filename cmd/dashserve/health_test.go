package main

// Health/readiness surface tests: liveness vs readiness semantics,
// degraded-mode serving over HTTP (reads 200, writes 503 with the typed
// code and a prober-derived Retry-After), the shutting-down drain, and
// the Retry-After arithmetic for 429/503 backpressure responses.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	dash "repro"
	"repro/internal/faultfs"
	"repro/internal/harness"
	"repro/internal/relation"
)

// testFaultServer builds the dashserve surface over a durable fooddb
// engine writing through a fault injector, returning the pieces the
// health tests drive: the handler, the server (for draining and the
// Retry-After helpers), the engine handle, and the injector.
func testFaultServer(t *testing.T, extra ...dash.Option) (http.Handler, *server, *dash.ServingEngine, *faultfs.Injector) {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{
		Algorithm: dash.AlgReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS)
	opts := append([]dash.Option{
		dash.WithShards(2),
		dash.WithDataDir(t.TempDir()),
		dash.WithDurableFS(inj),
		dash.WithDurabilityRetry(dash.DurabilityRetryPolicy{
			MaxRetries:       1,
			Backoff:          time.Millisecond,
			MaxBackoff:       2 * time.Millisecond,
			FailureThreshold: 2,
			ProbeInterval:    10 * time.Millisecond,
			MaxProbeInterval: 25 * time.Millisecond,
		}),
	}, extra...)
	engine, err := dash.Open(context.Background(), idx, app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mux, srv := newMux(engine, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	return mux, srv, engine.(*dash.ServingEngine), inj
}

// degradeEngine breaks the injected disk and applies writes until the
// engine trips to degraded.
func degradeEngine(t *testing.T, h *dash.ServingEngine, inj *faultfs.Injector) {
	t.Helper()
	inj.Break(nil)
	d := dash.Delta{Changes: []dash.FragmentChange{{
		Op: dash.OpUpdateFragment, ID: dash.FragmentID{relation.String("American"), relation.Int(10)},
		TermCounts: map[string]int64{"burger": 9}, TotalTerms: 9,
	}}}
	for i := 0; h.DurabilityState() != dash.DurabilityDegraded; i++ {
		if _, err := h.Apply(context.Background(), d); err == nil {
			t.Fatal("apply succeeded on a broken disk")
		}
		if i > 10 {
			t.Fatalf("engine did not degrade after %d failed applies", i)
		}
	}
}

// bodyStatus decodes the {"status": ...} readiness body.
func bodyStatus(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readiness body not JSON: %v (%q)", err, rec.Body.String())
	}
	return body.Status
}

// TestHealthzReadyzLifecycle drives the full probe lifecycle: ready while
// healthy, degraded-but-200 while durability is lost (liveness unmoved),
// ready again after recovery, and 503 shutting_down once draining.
func TestHealthzReadyzLifecycle(t *testing.T) {
	mux, srv, engine, inj := testFaultServer(t)

	if rec := get(t, mux, "/v1/healthz"); rec.Code != http.StatusOK || bodyStatus(t, rec) != "ok" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, mux, "/v1/readyz"); rec.Code != http.StatusOK || bodyStatus(t, rec) != "ready" {
		t.Fatalf("readyz: %d %q", rec.Code, rec.Body.String())
	}

	degradeEngine(t, engine, inj)
	rec := get(t, mux, "/v1/readyz")
	if rec.Code != http.StatusOK || bodyStatus(t, rec) != "degraded" {
		t.Fatalf("degraded readyz: %d %q, want 200 degraded", rec.Code, rec.Body.String())
	}
	var ready struct {
		NextProbeInMS *int64 `json:"next_probe_in_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || ready.NextProbeInMS == nil {
		t.Errorf("degraded readyz body %q lacks next_probe_in_ms", rec.Body.String())
	}
	// Liveness is orthogonal: a degraded process must not be restarted.
	if rec := get(t, mux, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Errorf("degraded healthz: %d", rec.Code)
	}

	inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for engine.DurabilityState() != dash.DurabilityHealthy {
		if time.Now().After(deadline) {
			t.Fatal("engine did not recover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec := get(t, mux, "/v1/readyz"); bodyStatus(t, rec) != "ready" {
		t.Fatalf("post-recovery readyz: %q", rec.Body.String())
	}

	srv.markDraining()
	rec = get(t, mux, "/v1/readyz")
	if rec.Code != http.StatusServiceUnavailable || bodyStatus(t, rec) != "shutting_down" {
		t.Fatalf("draining readyz: %d %q, want 503 shutting_down", rec.Code, rec.Body.String())
	}
	// Draining still serves searches (in-flight drain, not a hard stop) and
	// stays live.
	if rec := get(t, mux, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Errorf("draining healthz: %d", rec.Code)
	}
}

// TestDegradedWritesOverHTTP: while durability is degraded, reads serve
// 200, admin stats expose the degraded block, and writes answer 503 with
// the durability_degraded code and a prober-derived Retry-After — then
// recovery restores the write path.
func TestDegradedWritesOverHTTP(t *testing.T) {
	mux, _, engine, inj := testFaultServer(t)
	degradeEngine(t, engine, inj)

	// Reads keep serving from published snapshots.
	if rec := get(t, mux, "/v1/search?q=burger&k=2&s=20"); rec.Code != http.StatusOK {
		t.Fatalf("degraded search: %d %q", rec.Code, rec.Body.String())
	}

	upd := `{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":7},"total":7}]}`
	rec := postJSON(t, mux, "/v1/admin/apply", upd)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded apply: %d %q, want 503", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "durability_degraded" {
		t.Errorf("degraded apply code %q, want durability_degraded", code)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("degraded apply Retry-After %q, want integer seconds in [1,60]", ra)
	}

	// The stats surface carries the durability block.
	stats := get(t, mux, "/v1/admin/stats")
	var st struct {
		Durability *struct {
			State        string `json:"state"`
			Degradations uint64 `json:"degradations"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if st.Durability == nil || st.Durability.State != "degraded" || st.Durability.Degradations != 1 {
		t.Errorf("stats durability block %+v, want degraded/1", st.Durability)
	}

	inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for engine.DurabilityState() != dash.DurabilityHealthy {
		if time.Now().After(deadline) {
			t.Fatal("engine did not recover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec := postJSON(t, mux, "/v1/admin/apply", upd); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery apply: %d %q", rec.Code, rec.Body.String())
	}
}

// TestRetryAfterSeconds pins the clamp arithmetic: never 0 (retry
// storms), never past 60s (client giveups), always whole seconds
// rounded up.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{300 * time.Millisecond, "1"},
		{1001 * time.Millisecond, "2"},
		{59*time.Second + time.Millisecond, "60"},
		{10 * time.Minute, "60"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestRetryAfterFromState: the 429 and overload-503 Retry-After hints are
// derived from live server state — the middleware consults the provided
// pricing func, and overloadRetryAfter reflects the admission EWMA once
// one search has been observed.
func TestRetryAfterFromState(t *testing.T) {
	// Middleware: the 429 hint is whatever the pricing func says.
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler reached past a saturated limiter")
	})
	limiter := newClientLimiter(1)
	if !limiter.acquire("10.0.0.1") { // saturate the client's single slot
		t.Fatal("acquire failed")
	}
	h := withRequestMiddleware(blocked, newLogSink(io.Discard), limiter, nil, func() string { return "7" })
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=burger", nil)
	req.Header.Set("X-Client-ID", "10.0.0.1")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated client: %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("429 Retry-After = %q, want the priced hint 7", ra)
	}

	// overloadRetryAfter: "1" before any observation, EWMA-derived after.
	mux, srv, _ := muxWithServer(t, dash.WithAdmissionControl(dash.AdmissionOptions{}))
	if got := srv.overloadRetryAfter(); got != "1" {
		t.Errorf("cold overloadRetryAfter = %q, want fallback 1", got)
	}
	if rec := get(t, mux, "/v1/search?q=burger&k=2&s=20"); rec.Code != http.StatusOK {
		t.Fatalf("warmup search: %d", rec.Code)
	}
	st := srv.eng.Stats()
	if st.Admission == nil || st.Admission.EstCostNs == 0 {
		t.Fatal("admission EWMA not seeded by the warmup search")
	}
	want := retryAfterSeconds(time.Duration(st.Admission.EstCostNs))
	if got := srv.overloadRetryAfter(); got != want {
		t.Errorf("overloadRetryAfter = %q, want EWMA-derived %q", got, want)
	}
}

// muxWithServer is testMuxCfg, keeping the server for direct inspection.
func muxWithServer(t *testing.T, extra ...dash.Option) (http.Handler, *server, dash.Handle) {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{
		Algorithm: dash.AlgReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := dash.Open(context.Background(), idx, app,
		append([]dash.Option{dash.WithShards(2)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	mux, srv := newMux(engine, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	return mux, srv, engine
}
