package replic

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
)

// Options tunes a replica's bootstrap and tail loops. The zero value is
// the production default.
type Options struct {
	// HTTPClient carries all replication traffic (nil: a dedicated client
	// with no global timeout). Tests substitute severable transports here —
	// the chaos seam on the replica side of the stream.
	HTTPClient *http.Client
	// PollWait is the tail long-poll duration (default 10s).
	PollWait time.Duration
	// MaxBytes bounds one tail chunk (default: leader's cap).
	MaxBytes int
	// Backoff / MaxBackoff shape reconnect delays after a severed stream
	// (defaults 100ms / 5s, exponential).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Logf, when set, receives replication lifecycle events.
	Logf func(format string, args ...any)
	// OnPublish, when set, runs after a tail loop has published a new
	// epoch on its shard, with every shard's serving epoch (the facade
	// sweeps its result cache here).
	OnPublish func(epochs []uint64)
}

func (o Options) withDefaults() Options {
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff < o.Backoff {
		o.MaxBackoff = max(5*time.Second, o.Backoff)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.OnPublish == nil {
		o.OnPublish = func([]uint64) {}
	}
	return o
}

// shardTail is one shard's tail loop state. applied mirrors the live
// index's published epoch so stats and routing read it lock-free.
type shardTail struct {
	shard int
	live  *fragindex.LiveIndex

	applied      atomic.Uint64
	leaderEpoch  atomic.Uint64
	severed      atomic.Bool
	records      atomic.Uint64
	duplicates   atomic.Uint64
	reconnects   atomic.Uint64
	rebootstraps atomic.Uint64
	lastErr      atomic.Value // string
}

// Replica is a journal-tailing read replica of one leader: per-shard live
// indexes bootstrapped from the leader's snapshots and kept converged by
// tail loops. Reads go through Index exactly like a local index; writes
// have no path — replicas are read-only by construction.
type Replica struct {
	leader string
	client *Client
	opts   Options

	index  *fragindex.ShardedLiveIndex
	shards []*shardTail

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Bootstrap builds a cold replica: fetch the manifest, restore every shard
// from its newest snapshot generation, publish, and start the tail loops.
// The ctx governs the bootstrap only; the tail loops run until Close.
func Bootstrap(ctx context.Context, leaderURL string, opts Options) (*Replica, error) {
	opts = opts.withDefaults()
	client := NewClient(leaderURL, opts.HTTPClient)
	man, err := client.Manifest(ctx)
	if err != nil {
		return nil, fmt.Errorf("replic: bootstrap manifest: %w", err)
	}
	r := &Replica{leader: leaderURL, client: client, opts: opts}
	builders := make([]*fragindex.Index, man.Shards)
	epochs := make([]uint64, man.Shards)
	for i := 0; i < man.Shards; i++ {
		dump, ferr := fetchNewestSnapshot(ctx, client, man, i)
		if ferr != nil {
			return nil, ferr
		}
		idx, rerr := fragindex.Restore(dump)
		if rerr != nil {
			return nil, fmt.Errorf("replic: restoring shard %d: %w", i, rerr)
		}
		builders[i] = idx
		epochs[i] = dump.Epoch
	}
	if r.index, err = fragindex.NewShardedLiveFrom(builders); err != nil {
		return nil, fmt.Errorf("replic: assembling replica: %w", err)
	}
	tailCtx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < man.Shards; i++ {
		t := &shardTail{shard: i, live: r.index.Shard(i)}
		t.applied.Store(epochs[i])
		t.leaderEpoch.Store(man.PerShard[i].DurableEpoch)
		r.shards = append(r.shards, t)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.tailLoop(tailCtx, t)
		}()
	}
	opts.Logf("replic: bootstrapped %d shard(s) from %s at epochs %v", man.Shards, leaderURL, epochs)
	return r, nil
}

// fetchNewestSnapshot walks a shard's snapshot generations newest-first
// until one fetches and verifies — the same fallback discipline the
// leader's own recovery applies to corrupt generations.
func fetchNewestSnapshot(ctx context.Context, client *Client, man *Manifest, shard int) (*fragindex.Dump, error) {
	gens := man.PerShard[shard].Snapshots
	if len(gens) == 0 {
		return nil, fmt.Errorf("replic: shard %d has no snapshot generations to bootstrap from", shard)
	}
	var errs []error
	for k := len(gens) - 1; k >= 0; k-- {
		dump, err := client.FetchSnapshot(ctx, shard, gens[k].Epoch)
		if err == nil {
			return dump, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		errs = append(errs, err)
	}
	return nil, fmt.Errorf("replic: shard %d: every snapshot generation failed to fetch: %w", shard, errors.Join(errs...))
}

// tailLoop keeps one shard converged: poll, apply, and on failure degrade
// to stale-but-serving with exponential backoff — reads never block on the
// stream. A truncated cursor re-bootstraps the shard in place.
func (r *Replica) tailLoop(ctx context.Context, t *shardTail) {
	backoff := r.opts.Backoff
	published := t.applied.Load()
	for ctx.Err() == nil {
		if a := t.applied.Load(); a != published {
			published = a
			r.opts.OnPublish(r.index.Epochs())
		}
		res, err := r.client.Tail(ctx, t.shard, t.applied.Load(), r.opts.PollWait, r.opts.MaxBytes)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, durable.ErrTailTruncated) {
				// The leader pruned past our cursor (checkpoints, or a
				// poisoned segment rotated away). Start over from its
				// newest checkpoint — no restart, readers keep the old
				// epoch until the swap.
				t.rebootstraps.Add(1)
				r.opts.Logf("replic: shard %d: tail truncated, re-bootstrapping", t.shard)
				if rerr := r.rebootstrapShard(ctx, t); rerr == nil {
					t.severed.Store(false)
					backoff = r.opts.Backoff
					continue
				} else {
					err = rerr
				}
			}
			// Severed: stale-but-serving until the stream heals.
			if !t.severed.Swap(true) {
				r.opts.Logf("replic: shard %d: stream severed: %v", t.shard, err)
			}
			t.lastErr.Store(err.Error())
			t.reconnects.Add(1)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(backoff*2, r.opts.MaxBackoff)
			continue
		}
		if t.severed.Swap(false) {
			r.opts.Logf("replic: shard %d: stream healed at epoch %d", t.shard, t.applied.Load())
		}
		backoff = r.opts.Backoff
		t.leaderEpoch.Store(res.DurableEpoch)
		if !r.applyRecords(ctx, t, res.Records) {
			continue
		}
		if len(res.Records) == 0 && res.DurableEpoch > t.applied.Load() {
			// Record-free durable advance: the leader's snapshot-GC
			// compaction bumps its epoch without journaling (no logical
			// change), so stamp the epoch to stay convergence-comparable.
			if _, aerr := t.live.ApplyReplicated(ctx, crawl.Delta{}, res.DurableEpoch); aerr == nil {
				t.applied.Store(res.DurableEpoch)
			}
		}
	}
}

// applyRecords folds tailed records in order. Records at or below the
// applied epoch are duplicate delivery (the reconnect re-poll includes the
// cursor boundary when clocks race) and are dropped, never re-applied —
// both here and by ApplyReplicated's own ErrStaleEpoch guard, so a bug in
// either layer cannot double-apply a delta. Returns false when the shard
// was re-bootstrapped mid-batch and the rest of the batch is obsolete.
func (r *Replica) applyRecords(ctx context.Context, t *shardTail, recs []durable.TailRecord) bool {
	for _, rec := range recs {
		if rec.Epoch <= t.applied.Load() {
			t.duplicates.Add(1)
			continue
		}
		if _, err := t.live.ApplyReplicated(ctx, rec.Delta, rec.Epoch); err != nil {
			if errors.Is(err, fragindex.ErrStaleEpoch) {
				t.duplicates.Add(1)
				continue
			}
			if ctx.Err() != nil {
				return false
			}
			// An apply failure means the stream no longer matches local
			// state (divergence). Rebuild from the leader's checkpoint
			// rather than serve corrupt results.
			t.lastErr.Store(err.Error())
			t.rebootstraps.Add(1)
			r.opts.Logf("replic: shard %d: apply failed (%v), re-bootstrapping", t.shard, err)
			//lint:ignore droppederr a failed re-bootstrap leaves the loop severed; the next iteration retries with backoff
			r.rebootstrapShard(ctx, t)
			return false
		}
		t.applied.Store(rec.Epoch)
		t.records.Add(1)
	}
	return true
}

// rebootstrapShard refetches the shard's newest snapshot and swaps it in
// via ResetTo. Readers observe one epoch jump; the tail resumes from the
// snapshot's epoch.
func (r *Replica) rebootstrapShard(ctx context.Context, t *shardTail) error {
	man, err := r.client.Manifest(ctx)
	if err != nil {
		return err
	}
	if t.shard >= len(man.PerShard) {
		return fmt.Errorf("replic: leader manifest lost shard %d", t.shard)
	}
	dump, err := fetchNewestSnapshot(ctx, r.client, man, t.shard)
	if err != nil {
		return err
	}
	if dump.Epoch <= t.applied.Load() {
		// Already at or past the newest checkpoint; nothing to swap. The
		// truncation that sent us here will resolve on the next poll.
		return nil
	}
	idx, err := fragindex.Restore(dump)
	if err != nil {
		return err
	}
	if err := t.live.ResetTo(idx); err != nil {
		return err
	}
	t.applied.Store(dump.Epoch)
	r.opts.Logf("replic: shard %d: re-bootstrapped at epoch %d", t.shard, dump.Epoch)
	return nil
}

// Leader returns the leader URL this replica tails.
func (r *Replica) Leader() string { return r.leader }

// Spec returns the replicated index spec.
func (r *Replica) Spec() fragindex.Spec { return r.index.Spec() }

// NumShards returns the replicated shard count.
func (r *Replica) NumShards() int { return len(r.shards) }

// Index returns the replicated index the facade serves searches from.
func (r *Replica) Index() *fragindex.ShardedLiveIndex { return r.index }

// AppliedEpoch returns one shard's applied (published) epoch.
func (r *Replica) AppliedEpoch(shard int) uint64 {
	return r.shards[shard].applied.Load()
}

// MinApplied returns the minimum applied epoch across shards — the epoch
// bound a router can promise for reads served here.
func (r *Replica) MinApplied() uint64 {
	m := r.shards[0].applied.Load()
	for _, t := range r.shards[1:] {
		m = min(m, t.applied.Load())
	}
	return m
}

// MaxLag returns the worst shard's epoch lag behind the leader's last
// reported durable epoch (0 when converged or ahead of a stale report).
func (r *Replica) MaxLag() uint64 {
	var lag uint64
	for _, t := range r.shards {
		if l, a := t.leaderEpoch.Load(), t.applied.Load(); l > a {
			lag = max(lag, l-a)
		}
	}
	return lag
}

// Severed reports whether any shard's stream is currently severed.
func (r *Replica) Severed() bool {
	for _, t := range r.shards {
		if t.severed.Load() {
			return true
		}
	}
	return false
}

// ShardStats is one shard's replication report.
type ShardStats struct {
	Shard             int    `json:"shard"`
	AppliedEpoch      uint64 `json:"applied_epoch"`
	LeaderEpoch       uint64 `json:"leader_epoch"`
	Severed           bool   `json:"severed,omitempty"`
	RecordsApplied    uint64 `json:"records_applied"`
	DuplicatesDropped uint64 `json:"duplicates_dropped,omitempty"`
	Reconnects        uint64 `json:"reconnects,omitempty"`
	Rebootstraps      uint64 `json:"rebootstraps,omitempty"`
	LastError         string `json:"last_error,omitempty"`
}

// Stats is the replica's replication report, surfaced on /v1/readyz and
// /v1/admin/stats so routers can do bounded-staleness placement.
type Stats struct {
	Leader        string       `json:"leader"`
	State         string       `json:"state"` // tailing | severed | closed
	Shards        int          `json:"shards"`
	AppliedEpochs []uint64     `json:"applied_epochs"`
	MinApplied    uint64       `json:"min_applied_epoch"`
	MaxLag        uint64       `json:"max_lag_epochs"`
	PerShard      []ShardStats `json:"per_shard"`
}

// Stats assembles the replication report.
func (r *Replica) Stats() Stats {
	st := Stats{
		Leader:     r.leader,
		State:      "tailing",
		Shards:     len(r.shards),
		MinApplied: r.MinApplied(),
		MaxLag:     r.MaxLag(),
	}
	if r.Severed() {
		st.State = "severed"
	}
	if r.closed.Load() {
		st.State = "closed"
	}
	for _, t := range r.shards {
		ss := ShardStats{
			Shard:             t.shard,
			AppliedEpoch:      t.applied.Load(),
			LeaderEpoch:       t.leaderEpoch.Load(),
			Severed:           t.severed.Load(),
			RecordsApplied:    t.records.Load(),
			DuplicatesDropped: t.duplicates.Load(),
			Reconnects:        t.reconnects.Load(),
			Rebootstraps:      t.rebootstraps.Load(),
		}
		if msg, ok := t.lastErr.Load().(string); ok {
			ss.LastError = msg
		}
		st.AppliedEpochs = append(st.AppliedEpochs, ss.AppliedEpoch)
		st.PerShard = append(st.PerShard, ss)
	}
	return st
}

// Close stops the tail loops. Reads against the last published snapshots
// keep working; Close only ends convergence.
func (r *Replica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.cancel()
	r.wg.Wait()
	return nil
}
