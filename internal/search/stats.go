package search

import "repro/internal/fragindex"

// Topology names reported by Stats — which serving shape answered.
const (
	TopologyStatic  = "static"  // a plain Engine over a built or pinned index
	TopologyLive    = "live"    // an Engine over a LiveIndex (epoch-swap serving)
	TopologySharded = "sharded" // a ShardedEngine: one queue over its pinned shard set
)

// Stats is the one serving-stats report every topology answers (the
// facade's EngineStats embeds it). Fields that only one topology can
// fill stay at their zero value elsewhere: a static engine has no
// maintenance history. Counters
// are sums across shards (Keywords counts posting lists, so a keyword
// spanning k shards contributes k); MaxEpoch is the highest per-shard
// epoch, since shards advance independently.
type Stats struct {
	Topology       string  `json:"topology"`
	Shards         int     `json:"shards"`
	Fragments      int     `json:"fragments"`
	Keywords       int     `json:"keywords"`
	TombstonedRefs int     `json:"tombstoned_refs"`
	AvgTerms       float64 `json:"avg_terms_per_fragment"`
	MaxEpoch       uint64  `json:"max_epoch"`
	DeltasApplied  uint64  `json:"deltas_applied"`
	Publishes      uint64  `json:"publishes"`
	Queued         int     `json:"queued_deltas"`
	Inserted       uint64  `json:"fragments_inserted"`
	Removed        uint64  `json:"fragments_removed"`
	Updated        uint64  `json:"fragments_updated"`
	Compactions    uint64  `json:"compactions"`
	// PerShard carries each shard's own serving stats (epoch, pending
	// queue, publish counters) in shard order; nil for unsharded
	// topologies.
	PerShard []fragindex.LiveStats `json:"per_shard,omitempty"`
	// Cache and Admission report the serving-layer result cache and
	// admission controller when the handle was opened with them
	// (dash.WithResultCache / WithAdmissionControl); nil otherwise.
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// statsFromLive maps a LiveIndex report onto the unified shape.
func statsFromLive(topology string, ls fragindex.LiveStats) Stats {
	return Stats{
		Topology:       topology,
		Shards:         1,
		Fragments:      ls.Fragments,
		Keywords:       ls.Keywords,
		TombstonedRefs: ls.TombstonedRefs,
		AvgTerms:       ls.AvgTerms,
		MaxEpoch:       ls.Epoch,
		DeltasApplied:  ls.DeltasApplied,
		Publishes:      ls.Publishes,
		Queued:         ls.Queued,
		Inserted:       ls.Inserted,
		Removed:        ls.Removed,
		Updated:        ls.Updated,
		Compactions:    ls.Compactions,
	}
}

// Stats summarizes the engine's serving index in the unified shape. For a
// LiveIndex source that is the full maintenance history; for a built or
// pinned index it describes the snapshot the next Search would pin.
func (e *Engine) Stats() Stats {
	if live, ok := e.src.(*fragindex.LiveIndex); ok {
		return statsFromLive(TopologyLive, live.Stats())
	}
	snap := e.src.Snapshot()
	return Stats{
		Topology:       TopologyStatic,
		Shards:         1,
		Fragments:      snap.NumFragments(),
		Keywords:       snap.NumKeywords(),
		TombstonedRefs: snap.NumRefs() - snap.NumFragments(),
		AvgTerms:       snap.AvgTermsPerFragment(),
		MaxEpoch:       snap.Epoch(),
	}
}

// Stats aggregates the per-shard serving statistics in the unified shape.
func (se *ShardedEngine) Stats() Stats {
	ss := se.live.Stats()
	return Stats{
		Topology:       TopologySharded,
		Shards:         ss.Shards,
		Fragments:      ss.Fragments,
		Keywords:       ss.KeywordLists,
		TombstonedRefs: ss.TombstonedRefs,
		AvgTerms:       ss.AvgTerms,
		MaxEpoch:       ss.MaxEpoch,
		DeltasApplied:  ss.DeltasApplied,
		Publishes:      ss.Publishes,
		Queued:         ss.Queued,
		Inserted:       ss.Inserted,
		Removed:        ss.Removed,
		Updated:        ss.Updated,
		Compactions:    ss.Compactions,
		PerShard:       ss.PerShard,
	}
}
