package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dash "repro"
	"repro/internal/harness"
	"repro/internal/relation"
)

// testMux builds the full handler surface over the fooddb dataset, the
// same wiring run() performs — two shards through dash.Open, so routing
// and the sharded stats/apply paths are exercised — small enough for
// handler tests.
func testMux(t *testing.T) (http.Handler, dash.Handle) {
	t.Helper()
	return testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second})
}

// testMuxCfg is testMux with explicit serve configuration and optional
// extra engine options (result cache, admission control).
func testMuxCfg(t *testing.T, cfg serveConfig, extra ...dash.Option) (http.Handler, dash.Handle) {
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
	engine, err := dash.Open(context.Background(), idx, app, append([]dash.Option{dash.WithShards(2)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	mux, _ := newMux(engine, app, db, bound.SelAttrKinds(), cfg)
	return mux, engine
}

func get(t *testing.T, mux http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func postJSON(t *testing.T, mux http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	mux.ServeHTTP(rec, req)
	return rec
}

// errorCode extracts the structured envelope's code, failing if the body
// is not an envelope.
func errorCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body not an envelope: %v (%q)", err, rec.Body.String())
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %q", rec.Body.String())
	}
	return body.Error.Code
}

type searchResponse struct {
	Query   string `json:"query"`
	Count   int    `json:"count"`
	Results []struct {
		URL   string  `json:"url"`
		Query string  `json:"query_string"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// TestV1SearchHandler covers /v1/search: a good query returns JSON
// results; malformed parameters are 400 invalid_argument envelopes naming
// the parameter; a request with no usable keywords is a 422.
func TestV1SearchHandler(t *testing.T) {
	mux, _ := testMux(t)

	rec := get(t, mux, "/v1/search?q=burger&k=2&s=20")
	if rec.Code != http.StatusOK {
		t.Fatalf("good search: status %d, body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}
	if rec.Header().Get("Deprecation") != "" {
		t.Error("/v1 route carries a Deprecation header")
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("search response not JSON: %v", err)
	}
	if resp.Query != "burger" || resp.Count != 2 || len(resp.Results) != 2 {
		t.Fatalf("search response = %+v, want 2 burger results", resp)
	}
	if !strings.Contains(resp.Results[0].URL, "c=American") {
		t.Errorf("top URL = %q", resp.Results[0].URL)
	}

	if rec := get(t, mux, "/v1/search"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d, want 400", rec.Code)
	} else if errorCode(t, rec) != "invalid_argument" {
		t.Errorf("missing q: code %q", errorCode(t, rec))
	}

	for _, bad := range []struct{ url, param string }{
		{"/v1/search?q=burger&k=abc", "k"},
		{"/v1/search?q=burger&k=0", "k"},
		{"/v1/search?q=burger&s=-5", "s"},
		{"/v1/search?q=burger&s=12x", "s"},
		{"/v1/search?q=burger&limit=x", "limit"},
		{"/v1/search?q=burger&timeout_ms=abc", "timeout_ms"},
		{"/v1/search?q=burger&timeout_ms=0", "timeout_ms"},
	} {
		rec := get(t, mux, bad.url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad.url, rec.Code)
			continue
		}
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: not an envelope: %q", bad.url, rec.Body.String())
		}
		if body.Error.Code != "invalid_argument" || !strings.Contains(body.Error.Message, bad.param+" parameter") {
			t.Errorf("%s: envelope %+v does not name parameter %q", bad.url, body.Error, bad.param)
		}
	}

	// limit=0 is the engine's documented "full posting lists" sentinel —
	// explicitly serializing it must not 400.
	if rec := get(t, mux, "/v1/search?q=burger&k=2&s=20&limit=0"); rec.Code != http.StatusOK {
		t.Errorf("limit=0: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}

	// Whitespace-only q is well-formed HTTP but yields no keywords: the
	// engine rejects it, mapped to 422.
	rec = get(t, mux, "/v1/search?q=%20%20")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("blank q: status %d, want 422 (%s)", rec.Code, rec.Body.String())
	} else if errorCode(t, rec) != "validation_failed" {
		t.Errorf("blank q: code %q", errorCode(t, rec))
	}
}

// TestV1SearchTimeouts covers the context mappings: a request whose
// deadline already fired answers 504 deadline_exceeded, an abandoned
// client answers 499.
func TestV1SearchTimeouts(t *testing.T) {
	mux, _ := testMux(t)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search?q=burger", nil).WithContext(expired))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	} else if errorCode(t, rec) != "deadline_exceeded" {
		t.Errorf("expired deadline: code %q", errorCode(t, rec))
	}

	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search?q=burger", nil).WithContext(gone))
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled client: status %d, want 499 (%s)", rec.Code, rec.Body.String())
	} else if errorCode(t, rec) != "client_closed_request" {
		t.Errorf("cancelled client: code %q", errorCode(t, rec))
	}
}

// TestRequestContextClamp: ?timeout_ms= may shrink the per-request
// budget but never raise it past the server's — otherwise one query
// parameter would void the -search-timeout protection. With no budget
// (the admin apply path), the client value is taken as-is.
func TestRequestContextClamp(t *testing.T) {
	s := &server{cfg: serveConfig{searchTimeout: 100 * time.Millisecond}}
	deadlineWithin := func(raw string, budget, max time.Duration) {
		t.Helper()
		r := httptest.NewRequest(http.MethodGet, "/v1/search?q=x"+raw, nil)
		ctx, cancel, err := s.requestContext(r, r.URL.Query(), budget)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("%s: no deadline", raw)
		}
		if remaining := time.Until(dl); remaining > max {
			t.Errorf("%s: deadline %v out, want <= %v", raw, remaining, max)
		}
	}
	deadlineWithin("", s.cfg.searchTimeout, 100*time.Millisecond)
	deadlineWithin("&timeout_ms=10", s.cfg.searchTimeout, 10*time.Millisecond)
	// A client asking for an hour still gets the server's 100ms ceiling.
	deadlineWithin("&timeout_ms=3600000", s.cfg.searchTimeout, 100*time.Millisecond)
	// No budget (admin): the explicit value is honored.
	deadlineWithin("&timeout_ms=3600000", 0, time.Hour)
	// A count of milliseconds past math.MaxInt64 nanoseconds neither lifts
	// the ceiling nor, wrapping negative, drops the deadline.
	deadlineWithin("&timeout_ms=9223372036855", s.cfg.searchTimeout, 100*time.Millisecond)
	deadlineWithin("&timeout_ms=9223372036855", 0, math.MaxInt64)
	r := httptest.NewRequest(http.MethodGet, "/v1/admin/apply", nil)
	ctx, cancel, err := s.requestContext(r, r.URL.Query(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("no-budget request without timeout_ms carries a deadline")
	}
}

// TestLegacyRoutesGone: the pre-/v1 routes were deleted — they answer the
// structured 404 like any unknown path, with no deprecation headers left
// behind, and the per-client cap no longer treats them as search routes.
func TestLegacyRoutesGone(t *testing.T) {
	mux, _ := testMux(t)
	for _, url := range []string{
		"/search?q=burger&k=2&s=20",
		"/batch?q=burger&q=coffee&k=3",
		"/admin/stats",
	} {
		rec := get(t, mux, url)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, rec.Code)
		} else if errorCode(t, rec) != "not_found" {
			t.Errorf("%s: code %q, want not_found", url, errorCode(t, rec))
		}
		if rec.Header().Get("Deprecation") != "" || rec.Header().Get("Link") != "" {
			t.Errorf("%s: deprecation headers on a deleted route: %v", url, rec.Header())
		}
	}
	if rec := postJSON(t, mux, "/admin/apply", "{}"); rec.Code != http.StatusNotFound {
		t.Errorf("/admin/apply: status %d, want 404", rec.Code)
	}
	if isSearchRoute("/search") || isSearchRoute("/batch") || !isSearchRoute("/v1/search:batch") {
		t.Error("isSearchRoute still knows the legacy paths (or lost /v1/search:batch)")
	}
}

// TestV1BatchHandler covers the JSON batch endpoint, including parameter
// validation shared with /v1/search and the per-entry error shape.
func TestV1BatchHandler(t *testing.T) {
	mux, _ := testMux(t)

	rec := get(t, mux, "/v1/search:batch?q=burger&q=coffee&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("good batch: status %d, body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Queries []struct {
			Query   string `json:"query"`
			Error   string `json:"error"`
			Results []struct {
				URL string `json:"url"`
			} `json:"results"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if len(resp.Queries) != 2 {
		t.Fatalf("batch returned %d entries, want 2", len(resp.Queries))
	}
	if resp.Queries[0].Error != "" || len(resp.Queries[0].Results) == 0 {
		t.Errorf("burger entry = %+v", resp.Queries[0])
	}

	if rec := get(t, mux, "/v1/search:batch"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d, want 400", rec.Code)
	}
	rec = get(t, mux, "/v1/search:batch?q=burger&k=nope")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad k: status %d, want 400", rec.Code)
	} else if !strings.Contains(rec.Body.String(), "k parameter") {
		t.Errorf("bad k: body %q does not name k", rec.Body.String())
	}
}

// TestV1ApplyHandler covers /v1/admin/apply: method and body validation
// with the structured codes, a plain single-delta apply, and batch mode
// coalescing several deltas into one publish.
func TestV1ApplyHandler(t *testing.T) {
	mux, engine := testMux(t)

	rec := get(t, mux, "/v1/admin/apply")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
	if rec := postJSON(t, mux, "/v1/admin/apply", "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", rec.Code)
	} else if errorCode(t, rec) != "invalid_argument" {
		t.Errorf("bad JSON: code %q", errorCode(t, rec))
	}
	if rec := postJSON(t, mux, "/v1/admin/apply", "{}"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("empty delta: status %d, want 422", rec.Code)
	} else if errorCode(t, rec) != "validation_failed" {
		t.Errorf("empty delta: code %q", errorCode(t, rec))
	}
	bad := `{"changes":[{"op":"sideways","id":["American","10"]}]}`
	if rec := postJSON(t, mux, "/v1/admin/apply", bad); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown op: status %d, want 422", rec.Code)
	}
	// A total outside 0…math.MaxInt32 enters no index: a negative one
	// broke the ranking of the engine's bucketed queue. The whole request
	// is refused, the valid change routed to the other shard included.
	before := engine.Stats()
	for _, total := range []string{"-5", "2147483648"} {
		body := `{"changes":[{"op":"insert","id":["Nordic","3"],"terms":{"herring":1},"total":1},
			{"op":"insert","id":["Thai","11"],"terms":{"burger":1},"total":` + total + `}]}`
		if rec := postJSON(t, mux, "/v1/admin/apply", body); rec.Code != http.StatusUnprocessableEntity || errorCode(t, rec) != "validation_failed" {
			t.Errorf("total %s: status %d (%s), want 422 validation_failed", total, rec.Code, rec.Body.String())
		}
	}
	// A change one shard refuses for its state — (Thai,10) is present —
	// publishes nothing on either shard: (Nordic,3), routed to the other
	// shard, must not be served afterwards.
	dup := `{"changes":[{"op":"insert","id":["Nordic","3"],"terms":{"herring":1},"total":1},
		{"op":"insert","id":["Thai","10"],"terms":{"burger":1},"total":1}]}`
	if rec := postJSON(t, mux, "/v1/admin/apply", dup); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("insert of a present fragment: status %d (%s), want 422", rec.Code, rec.Body.String())
	}
	if rec := get(t, mux, "/v1/search?q=herring&k=5&s=20"); !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Errorf("a refused apply published (Nordic,3): %s", rec.Body.String())
	}
	if got := engine.Stats().Publishes; got != before.Publishes {
		t.Errorf("refused applies published %d snapshots", got-before.Publishes)
	}

	// One explicit update publishes one snapshot.
	upd := `{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":3},"total":3}]}`
	rec = postJSON(t, mux, "/v1/admin/apply", upd)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: status %d, body %q", rec.Code, rec.Body.String())
	}
	var st dash.ApplyReport
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total.Updated != 1 || st.Total.Deltas != 1 || len(st.PerShard) != 1 {
		t.Errorf("update stats = %+v", st)
	}
	mid := engine.Stats()
	if mid.Publishes != before.Publishes+1 {
		t.Errorf("publishes %d -> %d, want +1", before.Publishes, mid.Publishes)
	}

	// Batch mode: three deltas — two updates and an insert+remove pair
	// that cancels out — fold into a single publish.
	batch := `{"batch":[
		{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":2},"total":2}]},
		{"changes":[{"op":"insert","id":["Nordic","3"],"terms":{"herring":1},"total":1}]},
		{"changes":[{"op":"remove","id":["Nordic","3"]}]}
	]}`
	rec = postJSON(t, mux, "/v1/admin/apply", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch apply: status %d, body %q", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total.Deltas != 3 || st.Total.Updated != 1 || st.Total.Inserted != 0 || st.Total.Removed != 0 {
		t.Errorf("batch stats = %+v (want 3 deltas folded to 1 update)", st)
	}
	after := engine.Stats()
	if after.Publishes != mid.Publishes+1 {
		t.Errorf("batch publishes %d -> %d, want +1", mid.Publishes, after.Publishes)
	}
	if engine.(*dash.ServingEngine).Live().Has(dash.FragmentID{relation.String("Nordic"), relation.Int(3)}) {
		t.Error("cancelled insert reached the index")
	}
}

// TestV1StatsHandler covers /v1/admin/stats: the unified EngineStats
// shape with topology, aggregate, and one per-shard entry per shard.
func TestV1StatsHandler(t *testing.T) {
	mux, engine := testMux(t)
	rec := get(t, mux, "/v1/admin/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var st dash.EngineStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if st.Topology != "sharded" || st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats topology/shards/per_shard = %s/%d/%d, want sharded/2/2",
			st.Topology, st.Shards, len(st.PerShard))
	}
	want := engine.Stats()
	if st.Fragments != want.Fragments || st.Fragments == 0 {
		t.Errorf("stats fragments = %d, want %d (> 0)", st.Fragments, want.Fragments)
	}
}

// TestHomePage: the human demo moved to / — a form without q, rendered
// results with q, and a structured 404 for unknown routes.
func TestHomePage(t *testing.T) {
	mux, _ := testMux(t)
	if rec := get(t, mux, "/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "<form") {
		t.Errorf("home form: status %d, body %q", rec.Code, rec.Body.String())
	}
	rec := get(t, mux, "/?q=burger&k=2&s=20")
	if rec.Code != http.StatusOK {
		t.Fatalf("home search: status %d, body %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "db-pages") {
		t.Errorf("home search response missing results page: %q", rec.Body.String())
	}
	if rec := get(t, mux, "/no/such/route"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", rec.Code)
	} else if errorCode(t, rec) != "not_found" {
		t.Errorf("unknown route: code %q", errorCode(t, rec))
	}
}

// TestMiddlewareRecovery: a panicking handler answers a structured 500
// with the request id instead of killing the connection silently.
func TestMiddlewareRecovery(t *testing.T) {
	h := withRequestMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}), newLogSink(io.Discard), nil, nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if errorCode(t, rec) != "internal" {
		t.Errorf("panic envelope code = %q", errorCode(t, rec))
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("panic response missing X-Request-ID")
	}
}

// TestPprofOptIn: the profiling surface exists only when the flag opts in.
func TestPprofOptIn(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second})
	if rec := get(t, mux, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", rec.Code)
	}
	withPprof, _ := testMuxCfg(t, serveConfig{withPprof: true, searchTimeout: 5 * time.Second})
	if rec := get(t, withPprof, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", rec.Code)
	}
}

// TestV1ApplyQueueFlush covers the deferred maintenance modes on
// /v1/admin/apply: "queue" buffers without publishing, "flush" publishes
// the whole queue as one coalesced batch, and the malformed combinations
// (queue+recrawl, flush+deltas, empty queue, unknown mode) are 422s.
func TestV1ApplyQueueFlush(t *testing.T) {
	mux, engine := testMux(t)
	before := engine.Stats()

	rec := postJSON(t, mux, "/v1/admin/apply",
		`{"mode":"queue","changes":[{"op":"insert","id":["Nordic","3"],"terms":{"herring":2},"total":2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("queue: status %d, body %q", rec.Code, rec.Body.String())
	}
	var q struct {
		Queued  int `json:"queued"`
		Pending int `json:"pending"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Queued != 1 || q.Pending != 1 {
		t.Errorf("queue response %+v, want 1 queued / 1 pending", q)
	}
	rec = postJSON(t, mux, "/v1/admin/apply",
		`{"mode":"queue","changes":[{"op":"update","id":["American","10"],"terms":{"burger":5},"total":5}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("queue #2: status %d, body %q", rec.Code, rec.Body.String())
	}
	json.Unmarshal(rec.Body.Bytes(), &q)
	if q.Pending != 2 {
		t.Errorf("queue #2 pending = %d, want 2", q.Pending)
	}

	// Nothing published yet: the queued insert is invisible and the
	// publish counter is unchanged.
	mid := engine.Stats()
	if mid.Publishes != before.Publishes || mid.Queued != 2 {
		t.Errorf("after queueing: publishes %d->%d, queued %d", before.Publishes, mid.Publishes, mid.Queued)
	}
	if engine.(*dash.ServingEngine).Live().Has(dash.FragmentID{relation.String("Nordic"), relation.Int(3)}) {
		t.Error("queued insert reached the served index before flush")
	}

	for name, body := range map[string]string{
		"queue with recrawl": `{"mode":"queue","recrawl":[["American","10"]]}`,
		"empty queue":        `{"mode":"queue"}`,
		"flush with deltas":  `{"mode":"flush","changes":[{"op":"remove","id":["Nordic","3"]}]}`,
		"unknown mode":       `{"mode":"sideways","changes":[{"op":"remove","id":["Nordic","3"]}]}`,
	} {
		if rec := postJSON(t, mux, "/v1/admin/apply", body); rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (body %q)", name, rec.Code, rec.Body.String())
		} else if errorCode(t, rec) != "validation_failed" {
			t.Errorf("%s: code %q", name, errorCode(t, rec))
		}
	}

	rec = postJSON(t, mux, "/v1/admin/apply", `{"mode":"flush"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("flush: status %d, body %q", rec.Code, rec.Body.String())
	}
	var st dash.ApplyReport
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total.Deltas != 2 || st.Total.Inserted != 1 || st.Total.Updated != 1 {
		t.Errorf("flush report %+v, want 2 deltas / 1 insert / 1 update", st.Total)
	}
	after := engine.Stats()
	if after.Queued != 0 {
		t.Errorf("post-flush queued = %d, want 0", after.Queued)
	}
	if !engine.(*dash.ServingEngine).Live().Has(dash.FragmentID{relation.String("Nordic"), relation.Int(3)}) {
		t.Error("flushed insert missing from the served index")
	}
}

// durableMux is testMux over a durable engine rooted in a temp data dir.
func durableMux(t *testing.T) (http.Handler, dash.Handle) {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := dash.Open(context.Background(), idx, app, dash.WithShards(2), dash.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.(io.Closer).Close() })
	mux, _ := newMux(engine, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	return mux, engine
}

// TestV1StatsDurability: /v1/admin/stats grows a "durability" block only
// when the serving handle is durable.
func TestV1StatsDurability(t *testing.T) {
	plain, _ := testMux(t)
	if body := get(t, plain, "/v1/admin/stats").Body.String(); strings.Contains(body, "durability") {
		t.Errorf("plain stats leak a durability block: %q", body)
	}

	mux, _ := durableMux(t)
	rec := postJSON(t, mux, "/v1/admin/apply",
		`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":3},"total":3}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("durable apply: status %d, body %q", rec.Code, rec.Body.String())
	}
	var st struct {
		dash.EngineStats
		Durability *dash.DurabilityStats `json:"durability"`
	}
	if err := json.Unmarshal(get(t, mux, "/v1/admin/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("durable stats missing the durability block")
	}
	if st.Durability.Shards != 2 || st.Durability.SyncMode != string(dash.SyncAlways) || st.Durability.JournalRecords != 1 {
		t.Errorf("durability block %+v, want 2 shards / always / 1 journal record", st.Durability)
	}
}
