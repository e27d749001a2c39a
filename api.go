package dash

// This file is the public serving contract: the Searcher/Maintainer
// interfaces, the functional options, and dash.Open — the one entry point
// that assembles a serving handle from them, so call sites depend on the
// contract and change shape (shards, layers) without rewrites.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/faultfs"
	"repro/internal/fragindex"
	"repro/internal/replic"
	"repro/internal/search"
)

// Searcher is the read contract of every handle Open and OpenReplica
// return, whatever its shape, and of the bare *Engine.
// Every search takes a context first; an already-cancelled ctx returns
// ctx.Err() without touching a snapshot, and a cancellation or deadline
// arriving mid-search is honored cooperatively (a bounded number of heap
// pops after the signal — see the search package docs). The serving report
// (Stats) is part of Handle, not Searcher: a handle's EngineStats carries
// layer blocks the bare engines' search.Stats does not.
type Searcher interface {
	// Search answers one top-k query against the current index state.
	Search(ctx context.Context, req Request) ([]Result, error)
	// SearchBatch answers a batch of queries concurrently, all pinned to
	// one consistent index state; out[i] answers reqs[i]. Slots abandoned
	// by a cancellation carry ctx.Err().
	SearchBatch(ctx context.Context, reqs []Request) []BatchResult
}

// Maintainer is the write contract: fold database changes into the
// serving index while searches keep running. Every method takes a context
// and every apply is transactional per publish cycle — a cancellation,
// like any other error, publishes nothing in the failing cycle (see
// ShardedLiveIndex for the cross-shard contract). Read-only handles and
// replicas refuse every write with their typed error.
type Maintainer interface {
	// Apply folds one delta into the index and publishes atomically.
	Apply(ctx context.Context, d Delta) (ApplyReport, error)
	// ApplyBatch coalesces a sequence of deltas into one publish per
	// touched publish cycle.
	ApplyBatch(ctx context.Context, ds []Delta) (ApplyReport, error)
	// Recrawl re-executes the application query for the given fragment
	// partitions only, derives the resulting delta, and publishes it.
	Recrawl(ctx context.Context, db *Database, ids []FragmentID) (ApplyReport, error)
	// RecrawlWith combines a targeted re-crawl with explicit extra changes
	// in one transactional delta.
	RecrawlWith(ctx context.Context, db *Database, ids []FragmentID, extra Delta) (ApplyReport, error)
	// RecrawlBatch combines a targeted re-crawl with a batch of explicit
	// deltas; everything coalesces into one publish per touched cycle.
	RecrawlBatch(ctx context.Context, db *Database, ids []FragmentID, ds []Delta) (ApplyReport, error)
	// CompactIfNeeded runs the snapshot garbage collector, returning how
	// many publish cycles compacted.
	CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error)
}

// Handle is the full serving contract Open and OpenReplica return:
// searches, maintenance and the serving report over one index. The value
// behind it is always a *ServingEngine; call the methods beyond the
// contract (Queue, Flush, Checkpoint, DurabilityState, RouteSearch, ...)
// on that type, and read which layers are configured from Stats. Open
// returns Handle rather than the concrete type only because callers
// already type-assert CachedSearcher and Replicable on its result.
type Handle interface {
	Searcher
	Maintainer
	// Stats summarizes the serving index in the unified shape, with one
	// block per configured layer.
	Stats() EngineStats
}

// ErrReadOnly is returned by every write method of a handle opened with
// WithReadOnly.
var ErrReadOnly = errors.New("dash: read-only handle: maintenance not supported")

// openConfig accumulates functional options; zero values are the
// defaults.
type openConfig struct {
	shards      int // 0 or 1: single live index; > 1: sharded
	compactNum  int // posting-compaction threshold; 0/0: keep the default
	compactDen  int
	candLimit   int // default Request.CandidateLimit when a request has none
	readOnly    bool
	dataDir     string // non-empty: durable serving rooted here
	syncPolicy  SyncPolicy
	retry       DurabilityRetryPolicy    // zero value: durable defaults
	fsys        faultfs.FS               // nil: the real os package
	cacheBytes  int64                    // > 0: epoch-keyed result cache budget
	admission   *search.AdmissionOptions // non-nil: deadline-aware shedding
	replicaURLs []string                 // non-empty: bounded-staleness read routing
	staleness   int64                    // bounded-staleness contract; < 0: unbounded
	tail        replic.Options           // OpenReplica's bootstrap and tail loops
}

// storeTuned reports whether an option tuning the durable store is set;
// each is meaningless without WithDataDir.
func (c openConfig) storeTuned() bool {
	return c.syncPolicy != (SyncPolicy{}) || c.retry != (DurabilityRetryPolicy{}) || c.fsys != nil
}

// configure applies opts over the defaults.
func configure(opts []Option) (openConfig, error) {
	cfg := openConfig{staleness: DefaultStalenessBound}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return openConfig{}, err
		}
	}
	return cfg, nil
}

// Option configures Open and OpenReplica.
type Option func(*openConfig) error

// WithShards partitions the index across n independent publish cycles
// (default 1, a single live index). See ARCHITECTURE.md for the routing
// and equivalence contract.
func WithShards(n int) Option {
	return func(c *openConfig) error {
		if n < 1 {
			return fmt.Errorf("dash: WithShards(%d): shard count must be >= 1", n)
		}
		c.shards = n
		return nil
	}
}

// WithPostingCompaction tunes the lazy posting-list compaction threshold
// to num/den (default 1/4): a posting list is rewritten once at least
// num/den of its entries are dead. See Index.SetPostingCompaction.
func WithPostingCompaction(num, den int) Option {
	return func(c *openConfig) error {
		if num < 1 || den < 1 || num > den {
			return fmt.Errorf("dash: WithPostingCompaction(%d, %d): want 0 < num <= den", num, den)
		}
		c.compactNum, c.compactDen = num, den
		return nil
	}
}

// WithCandidateLimit caps postings read per keyword for every request that
// leaves Request.CandidateLimit at 0 (which otherwise means "read full
// lists"). A server-side guard against hot-keyword latency. A request can
// override the handle default either way: any positive CandidateLimit
// replaces it, and a negative one explicitly requests full posting lists
// (the engine treats every non-positive limit as unlimited).
func WithCandidateLimit(n int) Option {
	return func(c *openConfig) error {
		if n < 0 {
			return fmt.Errorf("dash: WithCandidateLimit(%d): limit must be >= 0", n)
		}
		c.candLimit = n
		return nil
	}
}

// WithReadOnly opens the static topology: searches run against the index
// as built and every write method returns ErrReadOnly. Incompatible with
// WithShards > 1.
func WithReadOnly() Option {
	return func(c *openConfig) error {
		c.readOnly = true
		return nil
	}
}

// WithDataDir makes the handle durable, rooted at dir: every publish
// journals its delta to disk before the swap that acknowledges it, and
// reopening the same directory recovers exactly the last acknowledged
// state. A fresh directory is seeded from the index passed to Open; an
// initialized one is recovered, idx must be nil, and the committed shard
// count pins the topology (see IsInitialized). Incompatible with
// WithReadOnly. Checkpoint, Stats().Durability and Close act on the store.
func WithDataDir(dir string) Option {
	return func(c *openConfig) error {
		if dir == "" {
			return fmt.Errorf("dash: WithDataDir: empty directory")
		}
		c.dataDir = dir
		return nil
	}
}

// WithSyncPolicy selects the journal sync discipline for WithDataDir
// (default: SyncAlways). SyncInterval trades the durability of the last
// interval's acknowledgements for append throughput.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *openConfig) error {
		c.syncPolicy = p
		return nil
	}
}

// WithDurabilityRetry tunes how a WithDataDir handle survives disk
// faults: transient append/checkpoint failures retry with capped
// exponential backoff; after FailureThreshold consecutive failures the
// handle degrades — searches keep serving, durable mutations fail fast
// with ErrDurabilityDegraded — until the background prober restores the
// data directory to service. The zero value means the durable defaults.
func WithDurabilityRetry(p DurabilityRetryPolicy) Option {
	return func(c *openConfig) error {
		c.retry = p
		return nil
	}
}

// WithDurableFS substitutes the filesystem the durable store writes
// through — the chaos-testing seam (faultfs.NewInjector wraps faultfs.OS
// with a programmable fault schedule). Only meaningful with WithDataDir;
// nil means the real os package.
func WithDurableFS(fsys faultfs.FS) Option {
	return func(c *openConfig) error {
		c.fsys = fsys
		return nil
	}
}

// WithReplicas layers bounded-staleness read routing over a durable
// leader handle: the handle polls each replica's readiness report and its
// RouteSearch places reads with no explicit MinEpoch on any replica within
// the staleness bound (WithStalenessBound) of the leader's current epoch,
// falling back to serving locally when none qualifies. Requires
// WithDataDir (replicas bootstrap from the leader's snapshots and tail its
// journal). urls are replica base URLs (dashserve processes started with
// -replica-of pointing back at this leader).
func WithReplicas(urls ...string) Option {
	return func(c *openConfig) error {
		if len(urls) == 0 {
			return fmt.Errorf("dash: WithReplicas: no replica URLs")
		}
		c.replicaURLs = urls
		return nil
	}
}

// WithStalenessBound overrides DefaultStalenessBound, the bounded-staleness
// contract for reads that carry no explicit MinEpoch. On a routing leader
// (WithReplicas) a replica must be within `epochs` epochs of the leader's
// current epoch to serve them; a replica (OpenReplica) that lags its
// leader by more sends them back. Negative means unbounded: any healthy
// replica qualifies, and a replica serves however stale it is.
func WithStalenessBound(epochs int) Option {
	return func(c *openConfig) error {
		if epochs == 0 {
			return fmt.Errorf("dash: WithStalenessBound(0): a zero bound would route nothing; use a positive bound or negative for unbounded")
		}
		c.staleness = int64(epochs)
		return nil
	}
}

// Open wraps a built index for serving behind the one public contract.
// The handle is a search engine over the index partitioned into
// WithShards publish cycles (default one) with the layers the options
// add: WithReadOnly (every write refused), WithDataDir (journaled,
// recoverable publishes), WithResultCache, WithAdmissionControl and
// WithReplicas. Every shape answers byte-identical results for the same
// corpus — the equivalence tests pin this down — so the choice is purely
// operational: write rate, core count, durability, read load.
//
// Open takes ownership of idx: all further access must go through the
// returned Handle. app may be nil when URL formulation is not needed.
//
// ctx bounds the open itself — chiefly durable recovery and seeding, which
// read and replay on-disk state shard by shard. A nil ctx is tolerated and
// degrades to "not cancellable". ctx is not retained by the handle.
func Open(ctx context.Context, idx *Index, app *Application, opts ...Option) (Handle, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.tail.HTTPClient != nil || cfg.tail.PollWait > 0 || cfg.tail.Logf != nil:
		return nil, errors.New("dash: WithReplicaPoll, WithReplicaTransport and WithReplicaLog configure OpenReplica, not Open")
	case cfg.readOnly && cfg.shards > 1:
		return nil, fmt.Errorf("dash: WithReadOnly is incompatible with WithShards(%d)", cfg.shards)
	case cfg.readOnly && cfg.dataDir != "":
		return nil, errors.New("dash: WithDataDir is incompatible with WithReadOnly")
	case len(cfg.replicaURLs) > 0 && cfg.dataDir == "":
		return nil, errors.New("dash: WithReplicas requires WithDataDir (replicas tail the durable journal)")
	case cfg.storeTuned() && cfg.dataDir == "":
		return nil, errors.New("dash: WithSyncPolicy, WithDurabilityRetry and WithDurableFS require WithDataDir")
	case idx == nil && cfg.dataDir == "":
		return nil, errors.New("dash: Open with a nil index (only a durable reopen serves without one)")
	}
	e := newEngine(cfg, app)
	var sl *fragindex.ShardedLiveIndex
	if cfg.dataDir != "" {
		sl, e.store, err = openDurable(orBackground(ctx), idx, cfg)
	} else {
		sl, err = fragindex.NewShardedLive(idx, max(cfg.shards, 1))
	}
	if err == nil && cfg.compactNum > 0 {
		err = sl.SetPostingCompaction(cfg.compactNum, cfg.compactDen)
	}
	if err != nil {
		if e.store != nil {
			e.store.Close()
		}
		return nil, err
	}
	e.serve(sl)
	if len(cfg.replicaURLs) > 0 {
		e.router = replic.NewRouter(cfg.replicaURLs, replic.RouterOptions{})
	}
	return e, nil
}

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic inside the layers.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
