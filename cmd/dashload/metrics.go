package main

// metrics.go names every number dashload reports and holds the small
// statistics it derives them with. BENCHMARK.json at the repo root
// declares the same names, units, directions and bounds; a unit test
// keeps the two in step.

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. Bound is the relative share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the serving tier sees, measured with tracing
// off. Every metric is defined on every workload (bench/README.md says
// what "op" is on each); all but server_rss_mb are stated at nominal
// machine speed (bootServers for setup_s, speedNormalise for the rest).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"search_rps", "1/s", "higher", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.20},
}

// perLayer is one number per serving component. Window counters are read
// from production surfaces around the HTTP window; trace metrics come
// from the in-process spans (trace.go). A metric whose layer the workload
// does not touch reads 0 there.
var perLayer = []metricDef{
	// Window counters.
	{"loadgen.ok_ratio", "ratio", "higher", 0},
	{"loadgen.cpu_ms_per_request", "ms", "lower", 0},
	{"loadgen.speed_factor", "ratio", "lower", 0},
	{"loadgen.cal_cpu_ms", "ms", "lower", 0},
	{"loadgen.raw_setup_s", "s", "lower", 0},
	{"loadgen.raw_ops_per_s", "1/s", "higher", 0},
	{"loadgen.raw_op_p50_ms", "ms", "lower", 0},
	{"loadgen.raw_search_rps", "1/s", "higher", 0},
	{"loadgen.raw_search_p95_ms", "ms", "lower", 0},
	{"loadgen.raw_cpu_ms_per_op", "ms", "lower", 0},
	{"loadgen.cpu_ref_ms", "ms", "lower", 0},
	{"dashserve.search_p50_ms", "ms", "lower", 0},
	{"dashserve.search_p99_ms", "ms", "lower", 0},
	{"dashserve.peak_rss_mb", "MiB", "lower", 0},
	{"dashserve.http_overhead_p50_ms", "ms", "lower", 0},
	{"dashserve.resp_bytes_per_search", "B", "lower", 0},
	{"search.engine_elapsed_p50_ms", "ms", "lower", 0},
	{"search.engine_elapsed_p99_ms", "ms", "lower", 0},
	{"search.cache_hit_ratio", "ratio", "higher", 0},
	{"search.cache_evictions_per_s", "1/s", "lower", 0},
	{"fragindex.cloned_chunks_per_apply", "count", "lower", 0},
	{"fragindex.cloned_lists_per_apply", "count", "lower", 0},
	{"fragindex.publishes_per_s", "1/s", "higher", 0},
	{"fragindex.compactions", "count", "lower", 0},
	{"durable.checkpoints", "count", "higher", 0},
	{"durable.apply_p50_ms", "ms", "lower", 0},
	{"durable.apply_p99_ms", "ms", "lower", 0},
	{"durable.apply_changes_per_s", "1/s", "higher", 0},
	{"durable.recover_s", "s", "lower", 0},
	{"crawl.recrawl_apply_p50_ms", "ms", "lower", 0},
	{"replic.visible_p50_ms", "ms", "lower", 0},
	{"replic.forward_ratio", "ratio", "lower", 0},
	{"replic.records_applied_per_s", "1/s", "higher", 0},
	{"replic.reconnects", "count", "lower", 0},
	{"replic.polls_per_visible", "count", "lower", 0},
	// Trace metrics.
	{"tpch.generate_s", "s", "lower", 0},
	{"crawl.integrated_s", "s", "lower", 0},
	{"fragindex.build_s", "s", "lower", 0},
	{"dash.open_s", "s", "lower", 0},
	{"search.engine_mean_us", "us", "lower", 0},
	{"search.engine_p50_us", "us", "lower", 0},
	{"search.engine_p99_us", "us", "lower", 0},
	{"fragindex.postings_per_query", "count", "lower", 0},
	{"search.results_per_query", "count", "higher", 0},
	{"search.postings_per_result", "count", "lower", 0},
	{"search.sharded_mean_us", "us", "lower", 0},
	{"search.cachekey_p50_ns", "ns", "lower", 0},
	{"search.cache_get_p50_ns", "ns", "lower", 0},
	{"search.cache_put_p50_ns", "ns", "lower", 0},
	{"dash.search_miss_p50_us", "us", "lower", 0},
	{"dash.search_hit_p50_us", "us", "lower", 0},
	{"crawl.coalesce_us_per_change", "us", "lower", 0},
	{"crawl.recrawl_fragment_p50_us", "us", "lower", 0},
	{"fragindex.apply_p50_us", "us", "lower", 0},
	{"fragindex.apply_us_per_change", "us", "lower", 0},
	{"fragindex.sharded_apply_p50_us", "us", "lower", 0},
	{"fragindex.apply_replicated_p50_us", "us", "lower", 0},
	{"fragindex.compact_ms", "ms", "lower", 0},
	{"fragindex.dump_ms", "ms", "lower", 0},
	{"durable.append_p50_us", "us", "lower", 0},
	{"durable.append_nosync_p50_us", "us", "lower", 0},
	{"durable.journal_bytes_per_change", "B", "lower", 0},
	{"durable.checkpoint_ms", "ms", "lower", 0},
	{"durable.journal_replay_ms", "ms", "lower", 0},
	{"durable.tailfrom_p50_us", "us", "lower", 0},
	{"replic.bootstrap_s", "s", "lower", 0},
	{"replic.visible_lag_p50_ms", "ms", "lower", 0},
	{"replic.router_pick_ns", "ns", "lower", 0},
	{"trace.self_time_share", "ratio", "lower", 0},
}

// workloadDef names one traffic mix and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"search_uncached", "2 closed-loop connections issue canonically distinct queries once each: the search engine and fragindex posting reads do the work and the result cache only misses, puts and evicts"},
	{"search_zipf_hot", "2 closed-loop connections draw Zipf(1.2) from 2000 queries that fit the cache: at least 95% hits, so dashserve HTTP handling and the cache lookup do the work and the engine almost none"},
	{"write_durable", "a closed-loop writer (8 changes per apply, every 4th a recrawl; 2 shards, fsync always, 2 s checkpoints) beside a closed-loop reader: crawl, CoW publish and journal work, and what publishes cost reads"},
	{"replica_ryw", "one serial loop on a leader and a replica: apply on the leader, wait until the replica shows the epoch, read-your-writes and one plain search on the replica: journal tailing and replicated applies"},
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64
	N     int
}

// metrics maps a metric name to its sample for one run.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) { m[name] = sample{Value: v, N: n} }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the nearest-rank
// rule on a sorted copy; 0 for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the middle value (mean of the two middle values for an even
// count), the convention statistics.median uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the spreads dashload prints are the ones the acceptance check takes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// okRatio is operations that succeeded and verified over operations
// attempted; an empty run has no successes.
func okRatio(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}
