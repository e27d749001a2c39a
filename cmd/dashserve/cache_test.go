package main

// Serving-under-load handler tests: the X-Cache response header flips
// miss -> hit -> (publish) -> miss, admission shedding answers structured
// 503 envelopes with Retry-After, the per-client in-flight cap answers
// 429, and the whole surface stays consistent under -race stress of
// concurrent clients against a publishing writer.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	dash "repro"
)

// TestV1SearchXCache: a repeated /v1/search answers from the cache
// (X-Cache: hit) with a byte-identical body, and a publish through
// /v1/admin/apply flips the same query back to a miss.
func TestV1SearchXCache(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second},
		dash.WithResultCache(1<<20))

	first := get(t, mux, "/v1/search?q=burger&k=3&s=20")
	if first.Code != http.StatusOK {
		t.Fatalf("first search: status %d, body %q", first.Code, first.Body.String())
	}
	if xc := first.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("first search X-Cache = %q, want miss", xc)
	}
	second := get(t, mux, "/v1/search?q=burger&k=3&s=20")
	if xc := second.Header().Get("X-Cache"); xc != "hit" {
		t.Fatalf("repeat search X-Cache = %q, want hit", xc)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatalf("cached body differs from uncached:\n%q\nvs\n%q",
			second.Body.String(), first.Body.String())
	}

	// A publish supersedes the pinned epochs: the very next identical
	// query must re-run against the new snapshot.
	upd := `{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":7},"total":7}]}`
	if rec := postJSON(t, mux, "/v1/admin/apply", upd); rec.Code != http.StatusOK {
		t.Fatalf("apply: status %d, body %q", rec.Code, rec.Body.String())
	}
	third := get(t, mux, "/v1/search?q=burger&k=3&s=20")
	if xc := third.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("post-publish X-Cache = %q, want miss", xc)
	}

	// Without a cache the header reports bypass.
	plain, _ := testMux(t)
	if rec := get(t, plain, "/v1/search?q=burger&k=3&s=20"); rec.Header().Get("X-Cache") != "bypass" {
		t.Errorf("uncached engine X-Cache = %q, want bypass", rec.Header().Get("X-Cache"))
	}
}

// TestV1BatchXCache: the batch header aggregates — hit only when every
// slot was served from cache.
func TestV1BatchXCache(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second},
		dash.WithResultCache(1<<20))

	// Warm one of the two slots individually: the batch is still a miss.
	get(t, mux, "/v1/search?q=burger&k=2&s=20")
	rec := get(t, mux, "/v1/search:batch?q=burger&q=coffee&k=2&s=20")
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d, body %q", rec.Code, rec.Body.String())
	}
	if xc := rec.Header().Get("X-Cache"); xc != "miss" {
		t.Errorf("half-warm batch X-Cache = %q, want miss", xc)
	}
	again := get(t, mux, "/v1/search:batch?q=burger&q=coffee&k=2&s=20")
	if xc := again.Header().Get("X-Cache"); xc != "hit" {
		t.Errorf("fully-warm batch X-Cache = %q, want hit", xc)
	}
	if again.Body.String() != rec.Body.String() {
		t.Error("cached batch body differs from uncached")
	}
}

// TestV1SearchOverload: when admission control judges the remaining
// deadline budget insufficient, the search sheds with a structured 503
// overloaded envelope and a Retry-After header — on both the single and
// the batch route.
func TestV1SearchOverload(t *testing.T) {
	// The floor sits between the 50ms shrunken budget and the 5s server
	// ceiling, so ?timeout_ms=50 is doomed but a default request is not.
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second},
		dash.WithAdmissionControl(dash.AdmissionOptions{MinBudget: time.Second}))

	rec := get(t, mux, "/v1/search?q=burger&k=2&s=20&timeout_ms=50")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("doomed search: status %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "overloaded" {
		t.Errorf("doomed search: code %q, want overloaded", code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
	if xc := rec.Header().Get("X-Cache"); xc != "bypass" {
		t.Errorf("shed search X-Cache = %q, want bypass", xc)
	}

	rec = get(t, mux, "/v1/search:batch?q=burger&q=coffee&timeout_ms=50")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("doomed batch: status %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "overloaded" {
		t.Errorf("doomed batch: code %q, want overloaded", code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("batch 503 without Retry-After")
	}

	// With an ample budget the same engine serves normally.
	if rec := get(t, mux, "/v1/search?q=burger&k=2&s=20"); rec.Code != http.StatusOK {
		t.Errorf("ample budget: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestPerClientCap: the middleware caps concurrent searches per client —
// a second in-flight search from the same client answers 429
// too_many_requests with Retry-After, other clients and non-search routes
// are unaffected, and the slot frees on completion.
func TestPerClientCap(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("block") == "1" {
			entered <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})
	h := withRequestMiddleware(inner, newLogSink(io.Discard), newClientLimiter(1), nil, nil)

	do := func(url, client string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("X-Client-ID", client)
		h.ServeHTTP(rec, req)
		return rec
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do("/v1/search?q=burger&block=1", "alice") }()
	<-entered // alice's first search is now holding her only slot

	if rec := do("/v1/search?q=coffee", "alice"); rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated client: status %d, want 429", rec.Code)
	} else {
		if code := errorCode(t, rec); code != "too_many_requests" {
			t.Errorf("saturated client: code %q", code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	if rec := do("/v1/search?q=coffee", "bob"); rec.Code != http.StatusOK {
		t.Errorf("other client: status %d, want 200", rec.Code)
	}
	if rec := do("/v1/admin/stats", "alice"); rec.Code != http.StatusOK {
		t.Errorf("non-search route capped: status %d, want 200", rec.Code)
	}

	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Errorf("blocked search: status %d, want 200", rec.Code)
	}
	if rec := do("/v1/search?q=coffee", "alice"); rec.Code != http.StatusOK {
		t.Errorf("slot not released: status %d, want 200", rec.Code)
	}
}

// TestServeLoadStress races concurrent clients against a publishing
// writer over the full middleware + cache + admission stack (run with
// -race): every response is one of 200/429/503, error envelopes are
// structured, and 429/503 responses carry Retry-After.
func TestServeLoadStress(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second, perClientInFlight: 2},
		dash.WithResultCache(256<<10),
		dash.WithAdmissionControl(dash.AdmissionOptions{MaxInFlight: 8}))

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			upd := fmt.Sprintf(
				`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":%d},"total":%d}]}`,
				2+i%5, 2+i%5)
			if rec := postJSON(t, mux, "/v1/admin/apply", upd); rec.Code != http.StatusOK {
				t.Errorf("writer: status %d, body %q", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	queries := []string{"burger", "coffee", "pizza", "burger+coffee"}
	var clients sync.WaitGroup
	for c := 0; c < 6; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			client := fmt.Sprintf("client-%d", c%3) // 2 goroutines share each id
			for i := 0; i < 60; i++ {
				url := fmt.Sprintf("/v1/search?q=%s&k=3&s=20", queries[i%len(queries)])
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("X-Client-ID", client)
				mux.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					if xc := rec.Header().Get("X-Cache"); xc != "hit" && xc != "miss" {
						t.Errorf("200 with X-Cache %q", xc)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if errorCode(t, rec) == "" || rec.Header().Get("Retry-After") == "" {
						t.Errorf("%d without envelope/Retry-After: %q", rec.Code, rec.Body.String())
					}
				default:
					t.Errorf("unexpected status %d: %q", rec.Code, rec.Body.String())
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	writer.Wait()
}
