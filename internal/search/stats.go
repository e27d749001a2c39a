package search

import "repro/internal/fragindex"

// Topology names reported by Stats — which serving shape answered.
const (
	TopologyLive    = "live"    // one shard: a single epoch-swap publish cycle
	TopologySharded = "sharded" // more than one shard, each its own publish cycle
)

// Stats is the one serving-stats report (the facade's EngineStats embeds
// it). Counters are sums across shards (Keywords counts posting lists, so
// a keyword spanning k shards contributes k); MaxEpoch is the highest
// per-shard epoch, since shards advance independently.
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
	// Seeding sums the scoring core's seeding work over every search that
	// reached it (cache misses; see SeedStats).
	Seeding SeedStats `json:"seeding"`
	// PerShard carries each shard's own serving stats (epoch, publish
	// counters) in shard order; nil with one shard.
	PerShard []fragindex.LiveStats `json:"per_shard,omitempty"`
	// Cache and Admission report the serving-layer result cache and
	// admission controller when the handle was opened with them
	// (dash.WithResultCache / WithAdmissionControl); nil otherwise.
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// SeedStats counts what the scoring core read to seed its queue, summed
// over searches: the Drains among them (searches whose walk read every
// list to the end; the wire key keeps its name), Postings read off the
// posting lists' cursors (by the walk, or by a CandidateLimit cut),
// postings Tabulated into per-keyword TF tables, TF Probes of those tables
// (completing a seed's unknown TFs, pricing an expansion neighbour), Seeds
// registered as candidates, and Pushes into the candLess heap. Divided by
// Searches they are the per-miss costs the threshold bound keeps down.
type SeedStats struct {
	Searches  uint64 `json:"searches"`
	Drains    uint64 `json:"drains"`
	Postings  uint64 `json:"postings_read"`
	Tabulated uint64 `json:"postings_tabulated"`
	Probes    uint64 `json:"tf_probes"`
	Seeds     uint64 `json:"seeds_registered"`
	Pushes    uint64 `json:"heap_pushes"`
}

// Stats folds the per-shard LiveStats rows into the unified shape. One
// shard reports the "live" topology without per-shard detail.
func (se *ShardedEngine) Stats() Stats {
	rows, deltas := se.live.Stats()
	st := Stats{Topology: TopologyLive, Shards: len(rows), DeltasApplied: deltas, Seeding: se.SeedStats()}
	if len(rows) > 1 {
		st.Topology, st.PerShard = TopologySharded, rows
	}
	var terms float64
	for _, r := range rows {
		st.Fragments += r.Fragments
		st.Keywords += r.Keywords
		st.TombstonedRefs += r.TombstonedRefs
		terms += r.AvgTerms * float64(r.Fragments)
		st.MaxEpoch = max(st.MaxEpoch, r.Epoch)
		st.Publishes += r.Publishes
		st.Inserted += r.Inserted
		st.Removed += r.Removed
		st.Updated += r.Updated
		st.Compactions += r.Compactions
	}
	if st.Fragments > 0 {
		st.AvgTerms = terms / float64(st.Fragments)
	}
	return st
}
