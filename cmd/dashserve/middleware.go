package main

// middleware.go is the one request-scoped middleware every dashserve
// request passes: an X-Request-ID response header, a per-client in-flight
// cap on search routes (429 + Retry-After past it), an access-log line
// (buffered by the log sink, see accesslog.go), and panic-to-500 recovery,
// so a panicking handler answers a structured 500 instead of killing the
// connection silently.

import (
	"crypto/rand"
	"encoding/hex"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// statusRecorder captures what a handler wrote so the access log and the
// panic recovery know where the response stands.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.code, sr.wrote = code, true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.code, sr.wrote = http.StatusOK, true
	}
	return sr.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's own writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// clientLimiter caps concurrently served search requests per client — the
// per-client half of overload protection (the process-wide half lives in
// dash.WithAdmissionControl). One greedy client saturating its cap gets
// 429s while everyone else keeps their full budget; the engine-level cap
// alone would let that client crowd the others out.
type clientLimiter struct {
	max      int
	mu       sync.Mutex
	inflight map[string]int
}

// newClientLimiter returns nil for max <= 0 — the "no cap" sentinel the
// middleware checks.
func newClientLimiter(max int) *clientLimiter {
	if max <= 0 {
		return nil
	}
	return &clientLimiter{max: max, inflight: make(map[string]int)}
}

// acquire admits one request for the client, reporting false at the cap.
func (cl *clientLimiter) acquire(key string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.inflight[key] >= cl.max {
		return false
	}
	cl.inflight[key]++
	return true
}

func (cl *clientLimiter) release(key string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if n := cl.inflight[key] - 1; n > 0 {
		cl.inflight[key] = n
	} else {
		delete(cl.inflight, key)
	}
}

// clientKey identifies the requesting client: an explicit X-Client-ID
// header when present (load balancers and tests set it), else the remote
// host without the ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// isSearchRoute reports whether the path is a search endpoint — the
// per-client cap covers the query-serving routes only; admin and demo
// routes stay uncapped so operators can always inspect an overloaded
// server.
func isSearchRoute(path string) bool {
	return strings.HasPrefix(path, "/v1/search")
}

// newRequestID returns a 16-hex-char random identifier — unique enough to
// correlate one access-log line with one client-reported failure.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // degraded, never fatal
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// withRequestMiddleware wraps the whole mux. Ordering matters: the
// recovery must see the panic before the connection unwinds, the log
// line must record the status the handler (or the recovery) settled on,
// and the per-client cap rejects before the handler allocates anything —
// a capped-out client's requests cost map lookups, nothing more. sink
// takes the access lines (and, as the standard logger's output, orders
// them with everything else logged). limiter may be nil (no per-client
// cap). durState feeds the access log's durability field (an atomic read
// per line); retryAfter429 prices the Retry-After hint for capped-out
// clients from the engine's observed search latency — roughly when one of
// the client's own slots frees up — instead of a made-up constant.
func withRequestMiddleware(next http.Handler, sink *logSink, limiter *clientLimiter, durState func() string, retryAfter429 func() string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		// The canonical spelling of X-Request-ID — what Set would store
		// and the wire carries — without re-deriving it per request.
		w.Header()["X-Request-Id"] = []string{id}
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// The standard way for a handler to abort the
					// connection on purpose; not ours to swallow.
					panic(p)
				}
				log.Printf("panic id=%s %s %s: %v\n%s",
					id, r.Method, r.URL.RequestURI(), p, debug.Stack())
				if !sr.wrote {
					writeError(sr, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			code := sr.code
			if !sr.wrote {
				code = http.StatusOK
			}
			cache := sr.Header().Get("X-Cache")
			if cache == "" {
				cache = "-"
			}
			dur := "-"
			if durState != nil {
				dur = durState()
			}
			now := time.Now()
			sink.access(now, r.Method, r.URL.RequestURI(), code,
				now.Sub(start).Round(time.Microsecond), id, cache, dur)
		}()
		if limiter != nil && isSearchRoute(r.URL.Path) {
			key := clientKey(r)
			if !limiter.acquire(key) {
				hint := "1"
				if retryAfter429 != nil {
					hint = retryAfter429()
				}
				sr.Header().Set("Retry-After", hint)
				writeError(sr, http.StatusTooManyRequests, "too_many_requests",
					"per-client in-flight search limit reached; retry later")
				return
			}
			defer limiter.release(key)
		}
		next.ServeHTTP(sr, r)
	})
}
