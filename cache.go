package dash

// Serving-layer result caching and admission control: the optional layers
// a handle carries when WithResultCache and/or WithAdmissionControl are
// given — leaders and replicas alike. The cache memoizes finished result
// lists keyed by (canonical request, pinned epoch vector) — epoch-swap
// publishes make invalidation free, and on multi-shard handles the key
// pins only the shards a query actually touches, so a publish on one
// shard leaves hot entries for the others valid. Singleflight collapses
// concurrent identical misses into one search; admission control sheds
// searches that cannot finish inside their deadline (or exceed the
// in-flight cap) with a fast ErrOverloaded instead of queueing them to
// time out. See internal/search/cache.go and admission.go for the
// mechanisms, ARCHITECTURE.md "Serving under load" for the policy.

import (
	"context"
	"fmt"

	"repro/internal/search"
)

// Serving-layer re-exports.
type (
	// Answer is one finished search as the result cache holds it: the
	// result list plus a memo slot for one encoding of it (Answer.Encoded),
	// shared by every caller the same search answered. Read-only.
	Answer = search.Answer
	// CacheStats reports the result cache's counters (EngineStats.Cache).
	CacheStats = search.CacheStats
	// AdmissionOptions configures WithAdmissionControl.
	AdmissionOptions = search.AdmissionOptions
	// AdmissionStats reports the admission controller's counters
	// (EngineStats.Admission).
	AdmissionStats = search.AdmissionStats
)

// ErrOverloaded reports that admission control shed the search; the
// caller should retry later. The /v1 HTTP layer maps it to 503 with a
// Retry-After header.
var ErrOverloaded = search.ErrOverloaded

// CacheStatus classifies how a search was answered, for surfaces (like
// the /v1 X-Cache header) that report cache effectiveness per request.
type CacheStatus string

const (
	// CacheHit: answered from the result cache (or by sharing a
	// concurrent identical search) — no expansion loop ran for this call.
	CacheHit CacheStatus = "hit"
	// CacheMiss: this call ran the search and (on success) populated the
	// cache.
	CacheMiss CacheStatus = "miss"
	// CacheBypass: no result cache is configured on the handle, or the
	// request was refused before reaching it.
	CacheBypass CacheStatus = "bypass"
)

// NewAnswer wraps a result list in an unshared answer, for callers that
// write responses from answers.
func NewAnswer(res []Result) *Answer { return search.NewAnswer(res) }

// CachedSearcher is the status-reporting search surface. Plain
// Search/SearchBatch remain the contract; these variants additionally
// report how each call was answered (always CacheBypass on a handle opened
// without WithResultCache).
type CachedSearcher interface {
	// SearchAnswer answers one query with the cache's own shared answer —
	// the same *Answer for the miss that computed it, the waiters collapsed
	// onto it and every later hit — plus the cache outcome. Search and
	// SearchStatus are views of it.
	SearchAnswer(ctx context.Context, req Request) (*Answer, CacheStatus, error)
	// SearchStatus is Search plus the cache outcome.
	SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error)
	// SearchBatchStatus is SearchBatch plus the batch-aggregate outcome:
	// CacheHit when every request was answered from the cache, CacheMiss
	// when any request ran a search.
	SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus)
}

// WithResultCache bounds an epoch-keyed result cache of roughly maxBytes
// of stored results in front of the topology's search path. Cached
// responses are byte-identical to uncached ones (the key pins the exact
// snapshot epochs the result was computed from), a publish is never
// served stale results (a new epoch is a new key), and N concurrent
// identical misses run one search (singleflight).
func WithResultCache(maxBytes int64) Option {
	return func(c *openConfig) error {
		if maxBytes <= 0 {
			return fmt.Errorf("dash: WithResultCache(%d): byte budget must be > 0", maxBytes)
		}
		c.cacheBytes = maxBytes
		return nil
	}
}

// WithAdmissionControl sheds searches the engine cannot serve usefully:
// requests whose remaining deadline budget is below the estimated cost of
// one uncached search, and requests beyond opts.MaxInFlight concurrently
// admitted ones, fail fast with ErrOverloaded instead of queueing to time
// out. Pairs with WithResultCache — cache hits are answered before
// budget shedding would matter, and only uncached searches feed the cost
// estimator.
func WithAdmissionControl(opts AdmissionOptions) Option {
	return func(c *openConfig) error {
		if opts.MaxInFlight < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MaxInFlight %d must be >= 0", opts.MaxInFlight)
		}
		if opts.MinBudget < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MinBudget %v must be >= 0", opts.MinBudget)
		}
		c.admission = &opts
		return nil
	}
}
