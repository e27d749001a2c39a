package main

// server.go is dashserve's HTTP surface: the versioned /v1 JSON API over
// the dash.Handle contract and the human-facing HTML demo page at /.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dash "repro"
	"repro/internal/relation"
	"repro/internal/webapp"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request abandoned by its own client before the response was ready.
const statusClientClosedRequest = 499

// serveConfig carries the handler-level knobs from flags to newMux.
type serveConfig struct {
	withPprof bool
	// searchTimeout is the default per-request search budget; 0 disables
	// the server-side deadline. ?timeout_ms= overrides it per request.
	searchTimeout time.Duration
	// perClientInFlight caps concurrently served search requests per
	// client (X-Client-ID header, else remote host); 0 disables the cap.
	// Excess requests answer 429 with Retry-After (see middleware.go).
	perClientInFlight int
	// accessLog takes the access lines; run passes the sink it made the
	// standard logger's output. nil: a sink of its own on stderr.
	accessLog *logSink
}

// server binds the handlers to the serving handle, so the surface is
// identical whatever shape Open picked. replica records whether the handle
// tails a leader (its readiness advertises the tail); draining flips
// readiness off for the graceful-shutdown window.
type server struct {
	eng      *dash.ServingEngine
	app      *webapp.Application
	db       *dash.Database
	kinds    []relation.Kind
	cfg      serveConfig
	replica  bool
	draining atomic.Bool
}

// newMux assembles the full HTTP surface over a serving handle and wraps
// it in the request middleware (X-Request-ID, access log, panic-to-500).
// Split out of run so handler tests can drive it with httptest against a
// small dataset. The returned server carries the handle and the readiness
// state main flips when shutdown begins. dash.Open and dash.OpenReplica
// return one handle type; which layers it carries (cache, durability,
// replica tail) is read from its Stats, never from its type.
func newMux(h dash.Handle, app *webapp.Application, db *dash.Database, kinds []relation.Kind, cfg serveConfig) (http.Handler, *server) {
	eng := h.(*dash.ServingEngine)
	st := eng.Stats()
	s := &server{eng: eng, app: app, db: db, kinds: kinds, cfg: cfg, replica: st.Replication != nil}
	mux := http.NewServeMux()
	mux.Handle("/app", app.Handler())
	if cfg.withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// The versioned JSON API.
	mux.HandleFunc("/v1/search", s.v1Search)
	mux.HandleFunc("/v1/search:batch", s.v1SearchBatch)
	mux.HandleFunc("/v1/admin/stats", s.v1AdminStats)
	mux.HandleFunc("/v1/admin/apply", s.v1AdminApply)
	mux.HandleFunc("/v1/healthz", s.v1Healthz)
	mux.HandleFunc("/v1/readyz", s.v1Readyz)

	// Durable handles expose the replication transport replicas bootstrap
	// from and tail (snapshot manifest + ranged fetch + journal long-poll).
	if st.Durability != nil {
		mux.Handle(dash.ReplicationPrefix+"/",
			http.StripPrefix(dash.ReplicationPrefix, eng.ReplicationHandler()))
	}

	// The human demo page; every other path answers the structured 404.
	mux.HandleFunc("/", s.home)

	if cfg.accessLog == nil {
		cfg.accessLog = newLogSink(os.Stderr)
	}
	return withRequestMiddleware(mux, cfg.accessLog, newClientLimiter(cfg.perClientInFlight),
		s.durabilityState, s.overloadRetryAfter), s
}

// errorBody is the /v1 structured error envelope.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(errorBody{Error: errorInfo{Code: code, Message: message}}); err != nil {
		log.Printf("encode error body: %v", err)
	}
}

// writeEngineError maps an engine or context error onto the envelope:
// context errors are the caller's own signals (504 when the per-request
// budget fired, 499 when the client went away); an admission-control shed
// or a degraded durable write is a 503 with a Retry-After hint computed
// from actual server state (nothing is wrong with the request — see
// health.go for the arithmetic); a write after Close means the server is
// going away; and everything else from a well-formed request is a
// validation failure.
func (s *server) writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dash.ErrReplicaReadOnly):
		// 421 Misdirected Request: this process is a replica; the write
		// belongs on the leader.
		writeError(w, http.StatusMisdirectedRequest, "not_leader", err.Error())
	case errors.Is(err, dash.ErrReplicaBehind):
		// Forwarding to the leader already failed (or was disabled): the
		// replica cannot satisfy the requested epoch yet. Retry shortly —
		// the tail loop is pulling the gap.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "replica_behind", err.Error())
	case errors.Is(err, dash.ErrDurabilityDegraded):
		w.Header().Set("Retry-After", s.degradedRetryAfter())
		writeError(w, http.StatusServiceUnavailable, "durability_degraded", err.Error())
	case errors.Is(err, dash.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
	case errors.Is(err, dash.ErrOverloaded):
		w.Header().Set("Retry-After", s.overloadRetryAfter())
		writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client_closed_request", err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, "validation_failed", err.Error())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// writeJSONStatus is writeJSON with an explicit non-200 status (the
// readiness probe's shutting-down answer).
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// requestContext derives the handler context: the client's own context
// (so a dropped connection cancels the request) bounded by ?timeout_ms=
// (read from q, the request's parsed query) or, absent that, the given
// budget (0: no server-side deadline).
// timeout_ms must be a positive integer when present, and when the
// handler has a budget it is a ceiling — a client may shrink its own
// deadline but never raise it past the server's, otherwise one query
// parameter would void the -search-timeout latency protection. Search
// handlers pass the -search-timeout budget; the admin apply handler
// passes 0 — a long recrawl is legitimate maintenance work, and imposing
// the search budget on it would routinely abort applies mid-flight
// (leaving sharded applies partially published, per the documented
// per-shard atomicity).
func (s *server) requestContext(r *http.Request, q url.Values, budget time.Duration) (context.Context, context.CancelFunc, error) {
	timeout := budget
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout_ms parameter %q: want a positive integer", raw)
		}
		// Compare before multiplying: a count of milliseconds past
		// math.MaxInt64 nanoseconds would wrap negative and drop the
		// deadline altogether.
		if ms = min(ms, math.MaxInt64/int64(time.Millisecond)); budget <= 0 || ms < budget.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// pageJSON is one suggested db-page in API responses.
type pageJSON struct {
	URL   string  `json:"url"`
	Query string  `json:"query_string"`
	Score float64 `json:"score"`
	Size  int64   `json:"size"`
}

func pagesJSON(results []dash.Result) []pageJSON {
	out := make([]pageJSON, 0, len(results))
	for _, res := range results {
		out = append(out, pageJSON{
			URL: res.URL, Query: res.QueryString, Score: res.Score, Size: res.Size,
		})
	}
	return out
}

// searchParams reads the shared q/k/s/limit/min_epoch search parameters
// from q, the request's query parsed once by the handler.
// k and s must be positive; limit accepts 0, the engine's documented
// "read full posting lists" sentinel. min_epoch is the bounded-staleness
// directive: the minimum published epoch the serving view must have
// reached (routing layers forward a request the local view cannot
// satisfy; 0, the default, accepts the configured staleness bound).
func searchParams(q url.Values) (queries []string, req dash.Request, err error) {
	k, err := intParam(q, "k", 5, 1)
	if err != nil {
		return nil, dash.Request{}, err
	}
	sz, err := intParam(q, "s", 100, 1)
	if err != nil {
		return nil, dash.Request{}, err
	}
	limit, err := intParam(q, "limit", 0, 0)
	if err != nil {
		return nil, dash.Request{}, err
	}
	var minEpoch uint64
	if raw := q.Get("min_epoch"); raw != "" {
		if minEpoch, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, dash.Request{}, fmt.Errorf("invalid min_epoch parameter %q: want a non-negative integer", raw)
		}
	}
	return q["q"], dash.Request{K: k, SizeThreshold: sz, CandidateLimit: limit, MinEpoch: minEpoch}, nil
}

// Forwarding headers for routed reads. A routed request is re-issued
// byte-for-byte against the chosen peer and its response streamed back
// unmodified, so a forwarded response is byte-identical to a local one;
// hdrForwarded is the single-hop loop guard (a forwarded request is never
// forwarded again), and hdrServedBy tells clients where the read ran.
const (
	hdrForwarded = "X-Dash-Forwarded"
	hdrServedBy  = "X-Dash-Served-By"
)

// proxyClient carries forwarded reads. No global timeout: the handler
// context (search budget + client disconnect) bounds each forward.
var proxyClient = &http.Client{}

// routeSearch consults the engine's placement decision for one read:
// replica handles forward requests they cannot satisfy back to the
// leader, routing leaders place eligible reads on a qualifying replica.
// Requests already forwarded once are always served locally.
func (s *server) routeSearch(r *http.Request, req dash.Request) (string, bool) {
	if r.Header.Get(hdrForwarded) != "" {
		return "", false
	}
	return s.eng.RouteSearch(req)
}

// forwardSearch re-issues the request against target and streams the
// response back byte-for-byte. An unreachable target answers 502 — except
// on a replica, where the local (stale but consistent) view is the
// documented degraded answer, so the caller retries locally instead.
func (s *server) forwardSearch(w http.ResponseWriter, r *http.Request, target string) bool {
	url := strings.TrimRight(target, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad_route_target", err.Error())
		return true
	}
	req.Header = r.Header.Clone()
	req.Header.Set(hdrForwarded, "1")
	resp, err := proxyClient.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			log.Printf("forward body close: %v", cerr)
		}
	}()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(hdrServedBy, strings.TrimRight(target, "/"))
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("forward copy: %v", err)
	}
	return true
}

// v1Search answers GET /v1/search?q=…&k=…&s=…&limit=…&timeout_ms=….
// The response body is deterministic for a given index state (timing goes
// to the X-Elapsed header): {"count":N,"query":"…","results":[…]} and a
// newline. The results array is the answer's memoized encoding, so a cache
// hit re-encodes nothing: it costs the query parse, the key probe and one
// Write.
func (s *server) v1Search(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	queries, base, err := searchParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	if len(queries) == 0 || queries[0] == "" {
		writeError(w, http.StatusBadRequest, "invalid_argument", "missing q parameter")
		return
	}
	ctx, cancel, err := s.requestContext(r, q, s.cfg.searchTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	defer cancel()
	base.Keywords = strings.Fields(queries[0])
	if target, route := s.routeSearch(r, base); route && s.forwardSearch(w, r, target) {
		return
	}
	start := time.Now()
	ans, status, err := s.eng.SearchAnswer(ctx, base)
	h := w.Header()
	h["X-Cache"] = xCacheValues[status]
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	pages, err := ans.Encoded(encodePages)
	if err != nil {
		log.Printf("encode: %v", err)
		writeError(w, http.StatusInternalServerError, "internal", "internal server error")
		return
	}
	h["X-Elapsed"] = []string{time.Since(start).Round(time.Microsecond).String()}
	h["Content-Type"] = jsonContentType
	buf := bodyPool.Get().(*[]byte)
	*buf = appendSearchBody((*buf)[:0], queries[0], len(ans.Results()), pages)
	if _, err := w.Write(*buf); err != nil {
		log.Printf("write: %v", err)
	}
	bodyPool.Put(buf)
}

// Header values every search response repeats, shared read-only so a
// response allocates none of them (the keys are in canonical form, as
// Header.Set would store them).
var (
	xCacheValues = map[dash.CacheStatus][]string{
		dash.CacheHit:    {string(dash.CacheHit)},
		dash.CacheMiss:   {string(dash.CacheMiss)},
		dash.CacheBypass: {string(dash.CacheBypass)},
	}
	jsonContentType = []string{"application/json"}
)

// bodyPool recycles the buffers search response bodies are assembled in.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// encodePages is the encoding v1Search memoizes on an answer: the JSON
// array of its pages, exactly as encoding/json nests it in a response.
func encodePages(results []dash.Result) ([]byte, error) {
	return json.Marshal(pagesJSON(results))
}

// appendSearchBody assembles one /v1/search response body around the
// already encoded pages array. The bytes are what
// json.NewEncoder(w).Encode(map[string]any{"query", "count", "results"})
// emits — keys sorted, HTML-escaped strings, trailing newline — which
// TestSearchBodyMatchesEncoder holds it to.
func appendSearchBody(dst []byte, query string, count int, pages []byte) []byte {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	dst = append(dst, `,"query":`...)
	dst = appendJSONString(dst, query)
	dst = append(dst, `,"results":`...)
	dst = append(dst, pages...)
	return append(dst, '}', '\n')
}

// appendJSONString appends s as encoding/json writes a string. Printable
// ASCII that JSON and the encoder's HTML escaping leave alone — nearly
// every query — is quoted in place; anything else (quotes, backslashes,
// <, >, &, control bytes, non-ASCII including U+2028/9 and invalid UTF-8)
// goes through encoding/json itself, so the two cannot disagree.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, err := json.Marshal(s)
			if err != nil {
				// Unreachable: marshalling a string cannot fail.
				panic(err)
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// v1SearchBatch answers GET /v1/search:batch?q=…&q=…&k=…&s=… — every q is
// one search, all pinned to the same index state via SearchBatch. Per-query
// engine failures are reported per entry; a request-level cancellation or
// deadline fails the whole call with 499/504.
func (s *server) v1SearchBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	queries, base, err := searchParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	if len(queries) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_argument", "missing q parameters")
		return
	}
	ctx, cancel, err := s.requestContext(r, q, s.cfg.searchTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	defer cancel()
	if target, route := s.routeSearch(r, base); route && s.forwardSearch(w, r, target) {
		return
	}
	reqs := make([]dash.Request, len(queries))
	for i, q := range queries {
		reqs[i] = base
		reqs[i].Keywords = strings.Fields(q)
	}
	start := time.Now()
	batch, status := s.eng.SearchBatchStatus(ctx, reqs)
	w.Header().Set("X-Cache", string(status))
	// A deadline or disconnect that actually cost results shows up in the
	// per-entry errors (abandoned slots carry ctx.Err()); a deadline that
	// fires after the last slot completed lost nothing, so re-polling ctx
	// here would throw away a fully successful batch. Fail the whole call
	// only when some entry was genuinely cut short by the context — or
	// when admission control shed the batch outright (every slot carries
	// ErrOverloaded, which must answer 503, not a 200 of error entries).
	for _, br := range batch {
		if br.Err != nil && (errors.Is(br.Err, context.DeadlineExceeded) || errors.Is(br.Err, context.Canceled) || errors.Is(br.Err, dash.ErrOverloaded)) {
			s.writeEngineError(w, br.Err)
			return
		}
	}
	type entryJSON struct {
		Query   string     `json:"query"`
		Error   string     `json:"error,omitempty"`
		Results []pageJSON `json:"results"`
	}
	entries := make([]entryJSON, len(batch))
	for i, br := range batch {
		entries[i].Query = queries[i]
		if br.Err != nil {
			entries[i].Error = br.Err.Error()
			entries[i].Results = []pageJSON{}
			continue
		}
		entries[i].Results = pagesJSON(br.Results)
	}
	w.Header().Set("X-Elapsed", time.Since(start).Round(time.Microsecond).String())
	writeJSON(w, map[string]any{"queries": entries})
}

// v1AdminStats answers GET /v1/admin/stats with the unified EngineStats
// shape (topology, aggregate counters, per-shard detail when sharded).
// Durable handles fill the "durability" block themselves — journal,
// checkpoint, and recovery counters plus the health state machine — so
// without -data-dir the field is omitted.
func (s *server) v1AdminStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Stats())
}

// v1AdminApply answers POST /v1/admin/apply: explicit fragment changes
// and/or targeted partition re-crawls, optionally batched into one
// publish. Malformed JSON is a 400; a well-formed request the engine
// cannot apply is a 422.
func (s *server) v1AdminApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a JSON delta")
		return
	}
	// No default budget for maintenance: only an explicit ?timeout_ms=
	// bounds an apply (see requestContext).
	ctx, cancel, err := s.requestContext(r, r.URL.Query(), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	defer cancel()
	var req applyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", fmt.Sprintf("bad delta JSON: %v", err))
		return
	}
	stats, err := s.handleApply(ctx, req)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, stats)
}

// changeJSON is one explicit fragment mutation with precomputed statistics.
type changeJSON struct {
	Op    string           `json:"op"` // insert | remove | update
	ID    []string         `json:"id"` // selection values, WHERE order
	Terms map[string]int64 `json:"terms,omitempty"`
	Total int64            `json:"total,omitempty"`
}

// deltaRequest is one delta's worth of maintenance: explicit fragment
// changes and/or partitions to re-crawl.
type deltaRequest struct {
	Changes []changeJSON `json:"changes"`
	// Recrawl lists fragment identifiers whose partitions should be
	// re-executed against the database; the op (insert/remove/update) is
	// derived from what the partition and the index currently hold.
	Recrawl [][]string `json:"recrawl"`
}

// applyRequest is the /v1/admin/apply body: one delta at the top level,
// and/or a batch of deltas coalesced into a single publish.
type applyRequest struct {
	deltaRequest
	// Batch holds additional deltas. When present, everything in the
	// request — the top-level delta included — is folded into one
	// published snapshot (changes to the same fragment coalesce; see
	// dash.Maintainer.ApplyBatch).
	Batch []deltaRequest `json:"batch"`
	// Mode selects deferred maintenance: "" (or "apply") publishes now,
	// "queue" buffers the request's explicit changes for a later flush
	// without publishing, and "flush" publishes everything queued so far as
	// one coalesced batch. Queued deltas flow through the same (journaled,
	// when durable) publish path at flush time.
	Mode string `json:"mode,omitempty"`
}

// handleApply validates, derives, and applies one admin maintenance
// request through the Maintainer contract. The whole request — derivation
// included — runs under the engine's maintenance serialization. A replica
// refuses every mode, the deferred ones included, with its typed error.
func (s *server) handleApply(ctx context.Context, req applyRequest) (any, error) {
	entries := append([]deltaRequest{req.deltaRequest}, req.Batch...)
	var (
		deltas []dash.Delta
		ids    []dash.FragmentID
		empty  = true
	)
	for _, e := range entries {
		if len(e.Changes) == 0 && len(e.Recrawl) == 0 {
			continue
		}
		empty = false
		d, err := parseDelta(e.Changes, s.kinds)
		if err != nil {
			return nil, err
		}
		if len(d.Changes) > 0 {
			deltas = append(deltas, d)
		}
		for _, raw := range e.Recrawl {
			id, err := parseID(raw, s.kinds)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
	}
	switch req.Mode {
	case "", "apply":
	case "queue":
		if len(ids) > 0 {
			return nil, errors.New(`"mode":"queue" takes explicit changes only: a recrawl derives against the current index, which defeats deferral`)
		}
		if empty {
			return nil, errors.New("empty delta: provide changes to queue")
		}
		n := 0
		for _, d := range deltas {
			var err error
			if n, err = s.eng.Queue(d); err != nil {
				return nil, err
			}
		}
		return map[string]any{"queued": len(deltas), "pending": n}, nil
	case "flush":
		if !empty {
			return nil, errors.New(`"mode":"flush" takes no deltas: it publishes what is already queued`)
		}
		return s.eng.Flush(ctx)
	default:
		return nil, fmt.Errorf("unknown mode %q: want apply, queue, or flush", req.Mode)
	}
	if empty {
		return nil, errors.New("empty delta: provide changes, recrawl, and/or batch")
	}
	if len(req.Batch) > 0 {
		// Batch mode: every delta folds into one published snapshot.
		return s.eng.RecrawlBatch(ctx, s.db, ids, deltas)
	}
	var extra dash.Delta
	if len(deltas) > 0 {
		extra = deltas[0]
	}
	return s.eng.RecrawlWith(ctx, s.db, ids, extra)
}

// parseDelta converts explicit JSON changes into a typed delta.
func parseDelta(changes []changeJSON, kinds []relation.Kind) (dash.Delta, error) {
	var d dash.Delta
	for _, ch := range changes {
		id, err := parseID(ch.ID, kinds)
		if err != nil {
			return dash.Delta{}, err
		}
		fc := dash.FragmentChange{ID: id, TermCounts: ch.Terms, TotalTerms: ch.Total}
		switch ch.Op {
		case "insert":
			fc.Op = dash.OpInsertFragment
		case "remove":
			fc.Op = dash.OpRemoveFragment
		case "update":
			fc.Op = dash.OpUpdateFragment
		default:
			return dash.Delta{}, fmt.Errorf("unknown op %q", ch.Op)
		}
		if fc.Op != dash.OpRemoveFragment {
			if err := checkTerms(ch); err != nil {
				return dash.Delta{}, err
			}
		}
		d.Changes = append(d.Changes, fc)
	}
	return d, nil
}

// checkTerms rejects what the index refuses of an insert or update
// whatever its state — a total outside 0…math.MaxInt32, an empty keyword,
// a TF outside 1…math.MaxInt32 — before the delta is routed: on a sharded
// server, a change one shard refuses would otherwise leave the changes
// routed to the other shards published.
func checkTerms(ch changeJSON) error {
	if ch.Total < 0 || ch.Total > math.MaxInt32 {
		return fmt.Errorf("id %v: total %d out of range 0..%d", ch.ID, ch.Total, math.MaxInt32)
	}
	for kw, tf := range ch.Terms {
		if kw == "" || tf < 1 || tf > math.MaxInt32 {
			return fmt.Errorf("id %v: keyword %q with term frequency %d (want a non-empty keyword and a count in 1..%d)", ch.ID, kw, tf, math.MaxInt32)
		}
	}
	return nil
}

// parseID converts string selection values into a typed fragment
// identifier using the query's selection-attribute kinds.
func parseID(raw []string, kinds []relation.Kind) (dash.FragmentID, error) {
	if len(raw) != len(kinds) {
		return nil, fmt.Errorf("id %v has %d values, want %d", raw, len(raw), len(kinds))
	}
	id := make(dash.FragmentID, len(raw))
	for i, s := range raw {
		v, err := relation.ParseAs(s, kinds[i])
		if err != nil {
			return nil, fmt.Errorf("id value %q: %w", s, err)
		}
		id[i] = v
	}
	return id, nil
}

// intParam reads an integer query parameter of at least min, returning
// def when it is absent. A malformed or out-of-range value is an error
// naming the parameter, which handlers surface as HTTP 400 — silently
// substituting the default would serve wrong-shaped results for a typo'd
// request.
func intParam(q url.Values, name string, def, min int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < min {
		kind := "positive"
		if min == 0 {
			kind = "non-negative"
		}
		return 0, fmt.Errorf("invalid %s parameter %q: want a %s integer", name, raw, kind)
	}
	return n, nil
}

var resultsTemplate = template.Must(template.New("results").Parse(`<!DOCTYPE html>
<html><head><title>Dash results for {{.Query}}</title></head><body>
<h1>Dash: db-pages for “{{.Query}}”</h1>
<ol>
{{range .Results}}<li><a href="{{.Href}}">{{.Label}}</a> — score {{printf "%.6f" .Score}}, {{.Size}} keywords</li>
{{end}}</ol>
<p>{{.Elapsed}} over {{.Fragments}} fragments (epoch {{.Epoch}})</p>
</body></html>
`))

var homeTemplate = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>Dash</title></head><body>
<h1>Dash: search db-pages</h1>
<form action="/" method="get">
<input type="text" name="q" placeholder="keywords…" autofocus>
<input type="submit" value="Search">
</form>
<p>JSON API under <code>/v1</code>: <code>/v1/search?q=…</code>,
<code>/v1/search:batch?q=…&amp;q=…</code>, <code>/v1/admin/stats</code>,
<code>/v1/admin/apply</code>.</p>
</body></html>
`))

type resultRow struct {
	Href  string
	Label string
	Score float64
	Size  int64
}

// home renders the human demo page: a search form at /, results for /?q=….
func (s *server) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, "not_found", "no such route (JSON API lives under /v1)")
		return
	}
	params := r.URL.Query()
	q := params.Get("q")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if q == "" {
		if err := homeTemplate.Execute(w, nil); err != nil {
			log.Printf("render: %v", err)
		}
		return
	}
	queries, base, err := searchParams(params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := s.requestContext(r, params, s.cfg.searchTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	base.Keywords = strings.Fields(queries[0])
	start := time.Now()
	results, err := s.eng.Search(ctx, base)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	rows := make([]resultRow, 0, len(results))
	for _, res := range results {
		rows = append(rows, resultRow{
			// Rewrite the application's base URL onto this server
			// so links work in the demo.
			Href:  "/app?" + res.QueryString,
			Label: res.URL,
			Score: res.Score,
			Size:  res.Size,
		})
	}
	// The portable Handle contract has no snapshot pinning, so the
	// footer's fragment count and epoch describe the serving index around
	// the request, not the exact versions the search pinned — a publish
	// landing mid-request can skew them by one version. The JSON API
	// carries no such footer; this is demo-page garnish.
	st := s.eng.Stats()
	err = resultsTemplate.Execute(w, map[string]any{
		"Query":     q,
		"Results":   rows,
		"Elapsed":   time.Since(start).Round(time.Microsecond).String(),
		"Fragments": st.Fragments,
		"Epoch":     st.MaxEpoch,
	})
	if err != nil {
		log.Printf("render: %v", err)
	}
}
