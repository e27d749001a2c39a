package dash

// Replicated serving: the public facade over internal/replic. A durable
// leader exposes its replication transport through ReplicationHandler
// (mounted under dash.ReplicationPrefix); OpenReplica builds a read-only
// handle that bootstraps from a leader's snapshots and tails its journal;
// WithReplicas turns a leader handle into a bounded-staleness read router
// over a replica fleet. See ARCHITECTURE.md "Replicated serving" for the
// protocol and failure matrix.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/replic"
)

// Replication re-exports.
type (
	// ReplicationStats is a replica's tail report (per-shard applied
	// epochs, lag, sever/reconnect counters) — EngineStats.Replication.
	ReplicationStats = replic.Stats
	// ReplicaRouterStats is a routing leader's per-replica placement
	// report — EngineStats.Replicas.
	ReplicaRouterStats = replic.RouterStats
)

// ReplicationPrefix is the URL prefix a leader's replication transport is
// mounted under.
const ReplicationPrefix = replic.Prefix

// DefaultStalenessBound is the default bounded-staleness contract, in
// epochs: a read with no explicit MinEpoch may be served by any replica
// whose applied epoch is within this many epochs of the leader's current
// epoch. Mutation epochs advance per change (not per publish), so the
// bound is in changes, not publishes.
const DefaultStalenessBound = 1024

var (
	// ErrReplicaReadOnly is returned by every write method of a replica
	// handle: writes belong to the leader. The /v1 layer maps it to 421 so
	// clients redirect their writes.
	ErrReplicaReadOnly = errors.New("dash: replica is read-only: send writes to the leader")
	// ErrReplicaBehind is returned by a replica's Search when the request
	// demands an epoch (Request.MinEpoch) the replica has not applied yet
	// and proxying is not available at this layer.
	ErrReplicaBehind = errors.New("dash: replica has not applied the requested epoch")
)

// Replicable serves the replication transport — meaningful on handles
// opened with WithDataDir. Mount the handler under ReplicationPrefix with
// http.StripPrefix.
type Replicable interface {
	ReplicationHandler() http.Handler
}

// WithReplicaTransport substitutes the HTTP client carrying a replica's
// replication traffic — the chaos seam for severing and healing the stream
// in tests. OpenReplica only.
func WithReplicaTransport(hc *http.Client) Option {
	return func(c *openConfig) error {
		c.tail.HTTPClient = hc
		return nil
	}
}

// WithReplicaPoll sets a replica's tail long-poll duration (default 10s)
// and initial reconnect backoff (default 100ms). OpenReplica only.
func WithReplicaPoll(wait, backoff time.Duration) Option {
	return func(c *openConfig) error {
		if wait <= 0 || backoff <= 0 {
			return fmt.Errorf("dash: WithReplicaPoll(%v, %v): durations must be > 0", wait, backoff)
		}
		c.tail.PollWait = wait
		c.tail.Backoff = backoff
		return nil
	}
}

// WithReplicaLog directs a replica's lifecycle events (sever, heal,
// re-bootstrap) to logf. OpenReplica only.
func WithReplicaLog(logf func(format string, args ...any)) Option {
	return func(c *openConfig) error {
		c.tail.Logf = logf
		return nil
	}
}

// OpenReplica bootstraps a read replica of the leader at leaderURL: the
// same serving engine as Open's, over an index restored from the leader's
// newest snapshot generations and kept converged by tailing its journal,
// with every write refused (ErrReplicaReadOnly). Searches are
// byte-identical to the leader at the same epoch, and the result cache
// retires entries of superseded epochs itself, as on a leader. RouteSearch
// sends back to the leader the reads the replica cannot satisfy (MinEpoch
// ahead of its applied epoch, or lag past WithStalenessBound). Close stops
// the tail; the last applied state keeps serving.
//
// Besides the replica options it takes WithStalenessBound,
// WithResultCache and WithAdmissionControl; the leader-side options
// (WithShards, WithReplicas, and WithDataDir with the store options that
// tune it) are rejected. The ctx bounds the bootstrap only. app may be nil when URL
// formulation is not needed; it must match the leader's application for
// URLs to agree.
func OpenReplica(ctx context.Context, leaderURL string, app *Application, opts ...Option) (Handle, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shards != 0 || len(cfg.replicaURLs) > 0 || cfg.dataDir != "" || cfg.storeTuned() {
		return nil, errors.New("dash: OpenReplica takes no leader-side options (WithShards, WithReplicas, WithDataDir, WithSyncPolicy, WithDurabilityRetry, WithDurableFS): the leader's shape and durability are replicated")
	}
	e := newEngine(cfg, app)
	if e.replica, err = replic.Bootstrap(orBackground(ctx), leaderURL, cfg.tail); err != nil {
		return nil, err
	}
	e.serve(e.replica.Index())
	return e, nil
}

// applied is the epoch a view pinned after this call is guaranteed to be
// at: on a replica its minimum applied epoch, which a tail records only
// after publishing, so read it before the pin, never after; elsewhere
// unbounded (leaders serve MinEpoch through RouteSearch instead).
func (e *ServingEngine) applied() uint64 {
	if e.replica == nil {
		return math.MaxUint64
	}
	return e.replica.MinApplied()
}

// behind refuses a request whose MinEpoch is past applied.
func behind(req Request, applied uint64) error {
	if req.MinEpoch > applied {
		return fmt.Errorf("%w: want epoch %d, applied %d", ErrReplicaBehind, req.MinEpoch, applied)
	}
	return nil
}

// ReplicationHandler serves the /v1/replication surface from the durable
// store; without a data dir there is nothing to replicate and every
// request answers 404.
func (e *ServingEngine) ReplicationHandler() http.Handler {
	if e.store == nil {
		return http.NotFoundHandler()
	}
	return replic.NewLeader(e.store)
}

// ReplicationStats returns a replica's tail report (zero elsewhere).
func (e *ServingEngine) ReplicationStats() ReplicationStats {
	if e.replica == nil {
		return ReplicationStats{}
	}
	return e.replica.Stats()
}

// RouteSearch places one read: the decision HTTP layers consult before
// running a search locally. When proxy is true the request should be
// forwarded byte-for-byte to target (a base URL), which keeps routed
// responses byte-identical to locally served ones. A replica sends the
// read to the leader when it cannot satisfy it: MinEpoch ahead of the
// applied epoch, or lag beyond the staleness bound. A routing leader
// places it on a replica within the effective minimum epoch — the explicit
// MinEpoch, else the current epoch minus the staleness bound — falling
// back to serving locally. Every other handle serves every read itself.
func (e *ServingEngine) RouteSearch(req Request) (string, bool) {
	switch {
	case e.replica != nil:
		if req.MinEpoch > 0 && e.replica.MinApplied() < req.MinEpoch ||
			e.staleness >= 0 && e.replica.MaxLag() > uint64(e.staleness) {
			return e.replica.Leader(), true
		}
	case e.router != nil:
		if req.MinEpoch > 0 || e.staleness < 0 {
			return e.router.Pick(req.MinEpoch) // unbounded staleness: any healthy replica
		}
		if cur := slices.Max(e.live.Epochs()); cur > uint64(e.staleness) {
			return e.router.Pick(cur - uint64(e.staleness))
		}
		return e.router.Pick(0)
	}
	return "", false
}
