package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	dash "repro"
	"repro/internal/fragindex"
	"repro/internal/harness"
)

// FuzzSearchParams: the /v1 search request decoders — the raw query
// string parsed as the handlers parse it, then searchParams and
// requestContext under a 10 s budget — never panic, and what they accept
// the engine can run: K ≥ 1, s ≥ 1, limit ≥ 0, and a deadline no later
// than the budget. Seeds are in testdata/fuzz/FuzzSearchParams.
func FuzzSearchParams(f *testing.F) {
	const budget = 10 * time.Second
	s := &server{cfg: serveConfig{searchTimeout: budget}}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query() does
		if _, req, err := searchParams(q); err == nil && (req.K < 1 || req.SizeThreshold < 1 || req.CandidateLimit < 0) {
			t.Fatalf("accepted k=%d s=%d limit=%d", req.K, req.SizeThreshold, req.CandidateLimit)
		}
		ctx, cancel, err := s.requestContext(httptest.NewRequest(http.MethodGet, "/v1/search", nil), q, budget)
		if err != nil {
			return
		}
		defer cancel()
		if dl, ok := ctx.Deadline(); !ok || dl.After(time.Now().Add(budget)) {
			t.Fatalf("deadline %v (set: %v) past the %v budget", time.Until(dl), ok, budget)
		}
	})
}

// FuzzApplyBody: a raw /v1/admin/apply body decoded into an applyRequest
// and applied — parseDelta with fooddb's selection kinds, then a 2-shard
// fooddb handle — either fails or leaves an index every shard of which
// dumps to a Dump that restores. Seeds are in testdata/fuzz/FuzzApplyBody.
func FuzzApplyBody(f *testing.F) {
	ctx := context.Background()
	db, app, err := harness.Fooddb()
	if err != nil {
		f.Fatal(err)
	}
	idx, _, err := dash.Build(ctx, db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		f.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		f.Fatal(err)
	}
	d := idx.Dump()
	f.Fuzz(func(t *testing.T, body string) {
		var req applyRequest
		if json.Unmarshal([]byte(body), &req) != nil {
			return
		}
		fresh, err := fragindex.Restore(d)
		if err != nil {
			t.Fatal(err)
		}
		h, err := dash.Open(ctx, fresh, app, dash.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		s := &server{eng: h.(*dash.ServingEngine), app: app, db: db, kinds: bound.SelAttrKinds()}
		defer s.eng.Close()
		if _, err := s.handleApply(ctx, req); err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := fragindex.Restore(s.eng.Live().Shard(i).Dump()); err != nil {
				t.Fatalf("shard %d: the applied index's Dump does not restore: %v", i, err)
			}
		}
	})
}
