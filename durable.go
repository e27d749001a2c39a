package dash

// Durable serving: dash.Open(..., WithDataDir(dir)) puts the
// internal/durable store under the served index. Every publish journals
// its folded delta before the snapshot swap (the fragindex.PublishHook
// seam), CompactIfNeeded doubles as a checkpoint, and reopening the same
// directory recovers exactly the last acknowledged durable publish.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/fragindex"
)

// Durability re-exports: the public surface of the durable layer.
type (
	// SyncPolicy configures when journal appends reach stable storage
	// (WithSyncPolicy).
	SyncPolicy = durable.SyncPolicy
	// SyncMode names a journal sync discipline.
	SyncMode = durable.SyncMode
	// DurabilityStats is the journal/checkpoint/recovery report a durable
	// handle answers (EngineStats.Durability).
	DurabilityStats = durable.Stats
	// RecoveryInfo reports what recovering one shard took.
	RecoveryInfo = durable.RecoveryInfo
	// DurabilityRetryPolicy tunes durable retry/backoff and degraded-mode
	// probing (WithDurabilityRetry).
	DurabilityRetryPolicy = durable.RetryPolicy
	// DurabilityState names the durability state machine's state
	// (DurabilityStats.State carries it as a string).
	DurabilityState = durable.State
)

// Durability state machine states.
const (
	// DurabilityHealthy: durable mutations reach stable storage.
	DurabilityHealthy = durable.StateHealthy
	// DurabilityDegraded: the data dir failed repeatedly; searches keep
	// serving but durable mutations fail fast with ErrDurabilityDegraded
	// until the background prober restores service.
	DurabilityDegraded = durable.StateDegraded
)

// Typed durability errors. Both surface through errors.Is whatever
// wrapping the publish path adds.
var (
	// ErrDurabilityDegraded is returned (possibly wrapped) by every
	// durable mutation — Apply, ApplyBatch, Recrawl*, Flush, Checkpoint,
	// CompactIfNeeded — while the handle is degraded. Searches are
	// unaffected. The handle recovers automatically when the prober
	// re-establishes the data directory.
	ErrDurabilityDegraded = durable.ErrDegraded
	// ErrClosed is returned by durable mutations after Close.
	ErrClosed = durable.ErrClosed
)

// Journal sync modes for WithSyncPolicy.
const (
	// SyncAlways fsyncs every journal append before the publish swap: an
	// acknowledged apply is durable, full stop. The default.
	SyncAlways = durable.SyncAlways
	// SyncInterval batches fsyncs on a timer: applies acknowledged within
	// the last interval may be lost to a crash — the throughput trade.
	SyncInterval = durable.SyncInterval
)

// IsInitialized reports whether dir already holds a committed durable data
// directory. Callers use it to decide whether Open needs a built index
// (fresh directory) or a nil one (recover the persisted state).
func IsInitialized(dir string) bool { return durable.IsInitialized(dir) }

// openDurable is Open's WithDataDir branch. A fresh directory is seeded
// from the caller's built index after partitioning, so each shard persists
// exactly what it serves; an initialized directory is recovered — the
// persisted state wins, and a non-nil idx is rejected rather than silently
// discarded. Every shard's publish hook then journals to its own log.
func openDurable(ctx context.Context, idx *Index, cfg openConfig) (_ *fragindex.ShardedLiveIndex, _ *durable.Store, err error) {
	st, err := durable.OpenWith(ctx, cfg.dataDir, cfg.syncPolicy, durable.Options{FS: cfg.fsys, Retry: cfg.retry})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	var sl *fragindex.ShardedLiveIndex
	switch {
	case st.Fresh() && idx == nil:
		return nil, nil, fmt.Errorf("dash: WithDataDir(%q): a fresh data dir needs a built index to seed", cfg.dataDir)
	case st.Fresh():
		if sl, err = fragindex.NewShardedLive(idx, max(cfg.shards, 1)); err != nil {
			return nil, nil, err
		}
		dumps := make([]*fragindex.Dump, sl.NumShards())
		for i := range dumps {
			dumps[i] = sl.Shard(i).Dump()
		}
		if err = st.Init(ctx, dumps); err != nil {
			return nil, nil, err
		}
	case idx != nil:
		return nil, nil, fmt.Errorf("dash: WithDataDir(%q): directory is already initialized; pass a nil index to serve its recovered state", cfg.dataDir)
	case cfg.shards != 0 && cfg.shards != st.NumShards():
		return nil, nil, fmt.Errorf("dash: WithShards(%d) disagrees with the data dir's committed %d shards", cfg.shards, st.NumShards())
	default:
		builders, _, rerr := st.Recover(ctx)
		if rerr != nil {
			return nil, nil, rerr
		}
		if sl, err = fragindex.NewShardedLiveFrom(builders); err != nil {
			return nil, nil, err
		}
	}
	// Write-ahead: each shard's folded delta is appended (and, policy
	// permitting, fsynced) before the swap acknowledges the publish. The
	// baseline is the degraded-recovery checkpoint source: a shard's Dump
	// is cut from its published snapshot, always an acknowledged state,
	// because a publish whose append failed is rolled back before its swap.
	for i := 0; i < sl.NumShards(); i++ {
		shard := i
		sl.Shard(shard).SetPublishHook(func(ctx context.Context, d Delta, epoch uint64) error {
			return st.Append(ctx, shard, d, epoch)
		})
	}
	st.SetBaseline(func(_ context.Context, shard int) (*fragindex.Dump, error) {
		return sl.Shard(shard).Dump(), nil
	})
	return sl, st, nil
}

// Checkpoint writes each shard's current state as a new snapshot
// generation and rotates its journal. Each shard's state is cut from its
// published snapshot without waiting for the writer; concurrent applies
// keep their write-ahead guarantee throughout. CompactIfNeeded on a durable handle
// checkpoints implicitly. Without a data dir there is nothing to persist
// and it returns nil.
func (e *ServingEngine) Checkpoint(ctx context.Context) error {
	if err := e.refuse(); err != nil || e.store == nil {
		return err
	}
	for i := 0; i < e.live.NumShards(); i++ {
		if err := orBackground(ctx).Err(); err != nil {
			return err
		}
		if err := e.store.Checkpoint(ctx, i, e.live.Shard(i).Dump()); err != nil {
			return err
		}
	}
	return nil
}

// DurabilityState reports the state machine's state; empty without a data
// dir. An atomic read, safe on every request path (readiness probes,
// access logging), unlike Stats, which takes every shard lock.
func (e *ServingEngine) DurabilityState() DurabilityState {
	if e.store == nil {
		return ""
	}
	return e.store.State()
}

// DurabilityProbeIn reports the time until the prober's next data-dir test
// (atomic read; zero while healthy): what serving layers derive
// Retry-After from for degraded writes.
func (e *ServingEngine) DurabilityProbeIn() time.Duration {
	if e.store == nil {
		return 0
	}
	return e.store.NextProbeIn()
}
