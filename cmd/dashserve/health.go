package main

// health.go is dashserve's liveness/readiness surface and the Retry-After
// arithmetic for backpressure responses. Liveness (/v1/healthz) answers
// 200 whenever the process can answer HTTP at all; readiness (/v1/readyz)
// reflects what the server can usefully do: ready, degraded (durability
// lost, reads still served — deliberately still 200 so load balancers
// keep routing searches), or shutting down (503 — drain new traffic).
// Retry-After hints are computed from actual server state, never a
// constant: degraded writes report the prober's next data-dir test,
// overload sheds report the admission controller's EWMA search latency.

import (
	"math"
	"net/http"
	"strconv"
	"time"

	dash "repro"
)

// v1Healthz answers GET /v1/healthz: pure liveness. Degraded durability
// and shutdown drains do not fail it — restarting the process would not
// help either condition.
func (s *server) v1Healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// v1Readyz answers GET /v1/readyz: readiness for traffic. While draining
// it answers 503 so balancers stop sending new requests; while durability
// is degraded it answers 200 with a "degraded" body — searches still
// serve from published snapshots, only durable writes are refused — plus
// the prober's next-attempt hint so operators see when recovery may land.
func (s *server) v1Readyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "shutting_down"})
		return
	}
	if s.eng.DurabilityState() == dash.DurabilityDegraded {
		writeJSON(w, map[string]any{
			"status":           "degraded",
			"next_probe_in_ms": s.eng.DurabilityProbeIn().Milliseconds(),
		})
		return
	}
	// Replicas advertise their tail state here — the block the leader-side
	// read router polls for per-shard applied epochs. A severed stream is
	// "degraded" but still 200: the replica keeps serving its last applied
	// (stale but consistent) view, which is exactly the bounded-staleness
	// contract's degraded mode.
	if s.replica {
		rs := s.eng.ReplicationStats()
		status := "ready"
		if rs.State != "tailing" {
			status = "degraded"
		}
		writeJSON(w, map[string]any{"status": status, "replication": rs})
		return
	}
	writeJSON(w, map[string]any{"status": "ready"})
}

// markDraining flips readiness to shutting-down; main calls it right
// before the graceful Shutdown drain.
func (s *server) markDraining() { s.draining.Store(true) }

// durabilityState names the serving handle's durability state for the
// access log: "-" for non-durable handles, whose state is empty (an atomic
// read either way — never a per-shard lock on the request path).
func (s *server) durabilityState() string {
	if st := s.eng.DurabilityState(); st != "" {
		return string(st)
	}
	return "-"
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, clamped to [1, 60]: never 0 (which invites an immediate retry
// storm) and never so long a client gives up on a transient condition.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// degradedRetryAfter hints when a degraded write is worth retrying: the
// prober's next data-dir test — before that fires, recovery cannot have
// happened, so retrying sooner is guaranteed wasted work.
func (s *server) degradedRetryAfter() string {
	if d := s.eng.DurabilityProbeIn(); d > 0 {
		return retryAfterSeconds(d)
	}
	return "1"
}

// overloadRetryAfter hints when a shed search is worth retrying: the
// admission controller's EWMA of one uncached search — roughly when an
// in-flight slot frees up. Before the first observation (or without
// admission control) it falls back to 1s.
func (s *server) overloadRetryAfter() string {
	st := s.eng.Stats()
	if st.Admission != nil && st.Admission.EstCostNs > 0 {
		return retryAfterSeconds(time.Duration(st.Admission.EstCostNs))
	}
	return "1"
}
