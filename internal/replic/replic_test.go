package replic

// End-to-end replication tests over a real durable store and httptest
// transport: snapshot bootstrap, tail convergence, duplicate delivery on
// replay, sever/heal chaos, truncation-driven re-bootstrap, and the
// bounded-staleness router.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
)

func testSpec() fragindex.Spec {
	return fragindex.Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
}

func fid(g string, v int64) fragment.ID {
	return fragment.ID{relation.String(g), relation.Int(v)}
}

func seedIndex(t *testing.T, n int) *fragindex.Index {
	t.Helper()
	idx, err := fragindex.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		counts := map[string]int64{"common": int64(i%3 + 1), fmt.Sprintf("w%d", i): 2}
		if _, err := idx.InsertFragment(fid(fmt.Sprintf("p%d", i%3), int64(i)), counts, int64(i+3)); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

func insDelta(id fragment.ID, counts map[string]int64, total int64) crawl.Delta {
	return crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpInsertFragment, ID: id, TermCounts: counts, TotalTerms: total,
	}}}
}

// leaderHarness is a one-shard durable leader: a live index journaling
// every publish to a real store, served over httptest. The same
// apply-then-append discipline dash's durable handle uses.
type leaderHarness struct {
	t    *testing.T
	st   *durable.Store
	live *fragindex.LiveIndex
	srv  *httptest.Server
}

// newLeaderHarness seeds a store and serves its replication surface,
// optionally behind an extra middleware wrapping the leader handler.
func newLeaderHarness(t *testing.T, wrap func(http.Handler) http.Handler) *leaderHarness {
	t.Helper()
	idx := seedIndex(t, 4)
	st, err := durable.Open(context.Background(), t.TempDir(), durable.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		st.Close()
		t.Fatal(err)
	}
	var h http.Handler = NewLeader(st)
	if wrap != nil {
		h = wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle(Prefix+"/", http.StripPrefix(Prefix, h))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return &leaderHarness{t: t, st: st, live: fragindex.NewLive(idx), srv: srv}
}

// apply publishes one delta on the leader and journals it — the durable
// epoch advances exactly like a production publish.
func (h *leaderHarness) apply(d crawl.Delta) uint64 {
	h.t.Helper()
	st, err := h.live.Apply(context.Background(), d)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.st.Append(context.Background(), 0, d, st.Epoch); err != nil {
		h.t.Fatal(err)
	}
	return st.Epoch
}

func (h *leaderHarness) checkpoint() {
	h.t.Helper()
	if err := h.st.Checkpoint(context.Background(), 0, h.live.Dump()); err != nil {
		h.t.Fatal(err)
	}
}

// fastOpts makes tail loops converge quickly in tests.
func fastOpts(hc *http.Client) Options {
	return Options{
		HTTPClient: hc,
		PollWait:   100 * time.Millisecond,
		Backoff:    5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBootstrapAndTailConvergence: a cold replica bootstraps from the
// newest snapshot, tails the journal, and converges to the leader's exact
// dump — including across a mid-stream checkpoint (journal rotation).
func TestBootstrapAndTailConvergence(t *testing.T) {
	h := newLeaderHarness(t, nil)
	preEpoch := h.apply(insDelta(fid("pre", 1), map[string]int64{"pre": 1}, 1))

	rep, err := Bootstrap(context.Background(), h.srv.URL, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if rep.NumShards() != 1 || rep.Index().NumShards() != 1 {
		t.Fatalf("replica shape: shards=%d", rep.NumShards())
	}
	waitFor(t, "pre-bootstrap record", func() bool { return rep.MinApplied() >= preEpoch })

	// Mutations landing while the replica tails, with a rotation between.
	var last uint64
	for i := 0; i < 3; i++ {
		last = h.apply(insDelta(fid("a", int64(i)), map[string]int64{"live": 1}, 1))
	}
	h.checkpoint()
	for i := 0; i < 3; i++ {
		last = h.apply(insDelta(fid("b", int64(i)), map[string]int64{"more": 1}, 1))
	}
	waitFor(t, "tail convergence", func() bool { return rep.MinApplied() == last })

	if got, want := rep.Index().Shard(0).Dump(), h.live.Dump(); !reflect.DeepEqual(got, want) {
		t.Error("converged replica dump diverged from leader")
	}
	st := rep.Stats()
	if st.State != "tailing" || st.MinApplied != last || st.PerShard[0].RecordsApplied < 6 {
		t.Errorf("stats = %+v", st)
	}
}

// replayTailOnce wraps the leader handler: after serving a tail response
// carrying records, the next tail request gets that previous response
// replayed verbatim — duplicate delivery, as after a reconnect race.
type replayTailOnce struct {
	inner http.Handler

	mu       sync.Mutex
	last     []byte
	lastHdr  http.Header
	armed    bool
	replayed bool
}

func (rt *replayTailOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/tail" {
		rt.inner.ServeHTTP(w, r)
		return
	}
	rt.mu.Lock()
	if rt.armed && rt.last != nil && !rt.replayed {
		body, hdr := rt.last, rt.lastHdr
		rt.replayed = true
		rt.mu.Unlock()
		for k, vs := range hdr {
			w.Header()[k] = vs
		}
		if _, err := w.Write(body); err != nil {
			panic(err)
		}
		return
	}
	rt.mu.Unlock()
	rec := httptest.NewRecorder()
	rt.inner.ServeHTTP(rec, r)
	if rec.Code == http.StatusOK && rec.Header().Get(hdrRecords) != "0" {
		rt.mu.Lock()
		rt.last = append([]byte(nil), rec.Body.Bytes()...)
		rt.lastHdr = rec.Header().Clone()
		rt.mu.Unlock()
	}
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	if _, err := w.Write(rec.Body.Bytes()); err != nil {
		panic(err)
	}
}

// TestDuplicateDeliveryDropped: a replayed tail chunk (records the
// replica already applied) is dropped record by record — the duplicates
// counter moves, the state does not, and convergence resumes. This is the
// regression test for the apply path's epoch guard.
func TestDuplicateDeliveryDropped(t *testing.T) {
	replay := &replayTailOnce{}
	h := newLeaderHarness(t, func(inner http.Handler) http.Handler {
		replay.inner = inner
		return replay
	})

	rep, err := Bootstrap(context.Background(), h.srv.URL, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	first := h.apply(insDelta(fid("d", 1), map[string]int64{"dup": 1}, 1))
	waitFor(t, "first record", func() bool { return rep.MinApplied() == first })

	// Arm the replay: the next poll re-delivers the chunk just applied.
	replay.mu.Lock()
	replay.armed = true
	replay.mu.Unlock()

	last := h.apply(insDelta(fid("d", 2), map[string]int64{"fresh": 1}, 1))
	waitFor(t, "post-replay convergence", func() bool { return rep.MinApplied() == last })
	waitFor(t, "duplicate counted", func() bool {
		return rep.Stats().PerShard[0].DuplicatesDropped > 0
	})

	if got, want := rep.Index().Shard(0).Dump(), h.live.Dump(); !reflect.DeepEqual(got, want) {
		t.Error("duplicate delivery corrupted the replica state")
	}
}

// severableTransport fails every request while severed — the chaos seam
// on the replica side of the stream.
type severableTransport struct {
	severed atomic.Bool
}

var errSevered = errors.New("transport severed")

func (s *severableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.severed.Load() {
		return nil, errSevered
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestSeverHealReconverges: severing the replication transport degrades
// the replica to stale-but-serving (reads keep answering the last applied
// epoch); healing re-converges without a restart.
func TestSeverHealReconverges(t *testing.T) {
	h := newLeaderHarness(t, nil)
	tr := &severableTransport{}
	rep, err := Bootstrap(context.Background(), h.srv.URL, fastOpts(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	first := h.apply(insDelta(fid("s", 1), map[string]int64{"pre": 1}, 1))
	waitFor(t, "pre-sever convergence", func() bool { return rep.MinApplied() == first })

	tr.severed.Store(true)
	waitFor(t, "sever detected", func() bool { return rep.Severed() })

	// Mutations the replica cannot see yet.
	var last uint64
	for i := 0; i < 3; i++ {
		last = h.apply(insDelta(fid("s", int64(10+i)), map[string]int64{"unseen": 1}, 1))
	}
	// Stale-but-serving: the applied epoch holds, the snapshot still reads.
	if rep.MinApplied() != first {
		t.Fatalf("severed replica moved to %d", rep.MinApplied())
	}
	if got := rep.Index().Shard(0).Snapshot().Epoch(); got != first {
		t.Fatalf("severed replica serves epoch %d, want %d", got, first)
	}
	st := rep.Stats()
	if st.State != "severed" || st.PerShard[0].LastError == "" || st.PerShard[0].Reconnects == 0 {
		t.Errorf("severed stats = %+v", st)
	}

	tr.severed.Store(false)
	waitFor(t, "heal convergence", func() bool {
		return !rep.Severed() && rep.MinApplied() == last
	})
	if got, want := rep.Index().Shard(0).Dump(), h.live.Dump(); !reflect.DeepEqual(got, want) {
		t.Error("healed replica diverged from leader")
	}
}

// TestTailTruncatedRebootstraps: while the replica is severed, the leader
// checkpoints enough for retention to prune the journals the replica's
// cursor needs. On heal the leader answers 410 and the replica must
// re-bootstrap from the newest checkpoint — then keep tailing.
func TestTailTruncatedRebootstraps(t *testing.T) {
	h := newLeaderHarness(t, nil)
	tr := &severableTransport{}
	rep, err := Bootstrap(context.Background(), h.srv.URL, fastOpts(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	first := h.apply(insDelta(fid("x", 1), map[string]int64{"seed": 1}, 1))
	waitFor(t, "initial convergence", func() bool { return rep.MinApplied() == first })

	tr.severed.Store(true)
	waitFor(t, "sever detected", func() bool { return rep.Severed() })

	// Enough checkpoint generations that retention prunes the journal
	// holding the replica's cursor epoch.
	for round := 0; round < 4; round++ {
		for k := 0; k < 2; k++ {
			h.apply(insDelta(fid("prune", int64(round*10+k)), map[string]int64{"pr": 1}, 1))
		}
		h.checkpoint()
	}
	// Sanity: the cursor really is unservable now.
	if _, terr := h.st.TailFrom(context.Background(), 0, first, 0); !errors.Is(terr, durable.ErrTailTruncated) {
		t.Fatalf("setup: cursor still servable: %v", terr)
	}
	last := h.apply(insDelta(fid("after", 1), map[string]int64{"post": 1}, 1))

	tr.severed.Store(false)
	waitFor(t, "rebootstrap convergence", func() bool { return rep.MinApplied() == last })
	if got := rep.Stats().PerShard[0].Rebootstraps; got < 1 {
		t.Errorf("rebootstraps = %d, want >= 1", got)
	}
	if got, want := rep.Index().Shard(0).Dump(), h.live.Dump(); !reflect.DeepEqual(got, want) {
		t.Error("re-bootstrapped replica diverged from leader")
	}
}

// TestLeaderEndpointErrors: the transport's error contract — bad shard
// 400, stale cursor 410, missing snapshot 404, writes 405.
func TestLeaderEndpointErrors(t *testing.T) {
	h := newLeaderHarness(t, nil)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(h.srv.URL + Prefix + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := resp.Body.Close(); err != nil {
				t.Errorf("body close: %v", err)
			}
		})
		return resp
	}
	if resp := get("/tail?shard=9&from=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard status = %d", resp.StatusCode)
	}
	if resp := get("/tail?shard=0&from=0"); resp.StatusCode != http.StatusGone {
		t.Errorf("stale cursor status = %d, want 410", resp.StatusCode)
	}
	if resp := get("/snapshot?shard=0&epoch=123456789"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing snapshot status = %d", resp.StatusCode)
	}
	resp, err := http.Post(h.srv.URL+Prefix+"/manifest", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Error(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}

	// The client maps the 410 envelope onto ErrTailTruncated.
	c := NewClient(h.srv.URL, nil)
	if _, err := c.Tail(context.Background(), 0, 0, 0, 0); !errors.Is(err, durable.ErrTailTruncated) {
		t.Errorf("client 410 mapping = %v", err)
	}
}

// readyzStub serves a minimal replica readiness report.
func readyzStub(minApplied *atomic.Uint64, healthy *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, `{"status":"ready","replication":{"min_applied_epoch":%d,"max_lag_epochs":0}}`,
			minApplied.Load())
	})
}

// TestRouterBoundedStaleness: the router places reads only on replicas
// at-or-past the requested epoch, falls back to the leader when none
// qualifies, and drops replicas that stop answering.
func TestRouterBoundedStaleness(t *testing.T) {
	var freshEpoch, staleEpoch atomic.Uint64
	var freshUp, staleUp atomic.Bool
	freshEpoch.Store(100)
	staleEpoch.Store(10)
	freshUp.Store(true)
	staleUp.Store(true)
	fresh := httptest.NewServer(readyzStub(&freshEpoch, &freshUp))
	defer fresh.Close()
	stale := httptest.NewServer(readyzStub(&staleEpoch, &staleUp))
	defer stale.Close()

	r := NewRouter([]string{fresh.URL, stale.URL}, RouterOptions{Poll: 10 * time.Millisecond})
	defer r.Stop()
	waitFor(t, "both replicas polled", func() bool {
		st := r.Stats()
		return len(st.Replicas) == 2 && st.Replicas[0].Healthy && st.Replicas[1].Healthy
	})

	// min_epoch 50: only the fresh replica qualifies — always picked.
	for i := 0; i < 4; i++ {
		url, ok := r.Pick(50)
		if !ok || url != fresh.URL {
			t.Fatalf("Pick(50) = %q, %v", url, ok)
		}
	}
	// min_epoch 5: both qualify — round-robin hits both.
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		url, ok := r.Pick(5)
		if !ok {
			t.Fatal("Pick(5) fell back")
		}
		seen[url] = true
	}
	if !seen[fresh.URL] || !seen[stale.URL] {
		t.Errorf("round-robin skipped a qualifying replica: %v", seen)
	}
	// min_epoch 1000: nobody qualifies — leader fallback.
	if _, ok := r.Pick(1000); ok {
		t.Error("Pick(1000) routed to a lagging replica")
	}

	// The fresh replica goes dark: it must drop out of rotation.
	freshUp.Store(false)
	waitFor(t, "fresh replica marked down", func() bool {
		for _, rs := range r.Stats().Replicas {
			if rs.URL == fresh.URL {
				return !rs.Healthy
			}
		}
		return false
	})
	if _, ok := r.Pick(50); ok {
		t.Error("Pick(50) routed to a dead replica")
	}
	st := r.Stats()
	if st.Routed == 0 || st.Fallback == 0 {
		t.Errorf("router counters = %+v", st)
	}
}
