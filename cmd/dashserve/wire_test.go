package main

// The wire-shape guard: the JSON keys /v1/admin/stats, /v1/admin/apply and
// /v1/readyz answer with, per serving configuration. dashload and the CI
// smokes parse these bodies, so a refactor of the handle behind the
// handlers must leave every key set exactly as pinned here.

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	dash "repro"
	"repro/internal/harness"
)

// wireStatsKeys is the key set every /v1/admin/stats body carries.
var wireStatsKeys = []string{
	"topology", "shards", "fragments", "keywords", "tombstoned_refs",
	"avg_terms_per_fragment", "max_epoch", "deltas_applied", "publishes",
	"queued_deltas", "fragments_inserted", "fragments_removed",
	"fragments_updated", "compactions",
}

// wireTotalKeys is the key set of an apply report's "total" block.
var wireTotalKeys = []string{
	"deltas", "inserted", "removed", "updated", "epoch",
	"cloned_chunks", "cloned_shards", "cloned_lists", "cloned_groups",
}

// wireMux opens fooddb through dash.Open with opts and serves it.
func wireMux(t *testing.T, opts ...dash.Option) http.Handler {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dash.Open(context.Background(), idx, app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c, ok := h.(interface{ Close() error }); ok {
			c.Close()
		}
	})
	mux, _ := newMux(h, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	return mux
}

// jsonKeys decodes a JSON object body and returns its sorted top-level keys.
func jsonKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body is not a JSON object: %v (%q)", err, body)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedKeys(keys ...string) []string {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// TestWireShape pins the admin and readiness bodies of every serving
// configuration dashserve can run: which top-level keys appear, the
// topology name, per_shard only on multi-shard handles, and the apply
// report's total block.
func TestWireShape(t *testing.T) {
	const update = `{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":3},"total":3}]}`
	for _, tc := range []struct {
		name     string
		mux      func(t *testing.T) http.Handler
		topology string
		stats    []string // keys beyond wireStatsKeys
		apply    []string // nil: the write is refused with an error envelope
		refusal  int
		readyz   []string
	}{
		{
			name:     "live S=1",
			mux:      func(t *testing.T) http.Handler { return wireMux(t) },
			topology: "live",
			apply:    []string{"total"},
			readyz:   []string{"status"},
		},
		{
			name:     "sharded S=2",
			mux:      func(t *testing.T) http.Handler { return wireMux(t, dash.WithShards(2)) },
			topology: "sharded",
			stats:    []string{"per_shard"},
			apply:    []string{"per_shard", "total"},
			readyz:   []string{"status"},
		},
		{
			name: "durable+cache S=2",
			mux: func(t *testing.T) http.Handler {
				return wireMux(t, dash.WithShards(2), dash.WithDataDir(t.TempDir()), dash.WithResultCache(1<<20))
			},
			topology: "sharded",
			stats:    []string{"per_shard", "cache", "durability"},
			apply:    []string{"per_shard", "total"},
			readyz:   []string{"status"},
		},
		{
			name:     "durable leader S=1",
			mux:      func(t *testing.T) http.Handler { return wireMux(t, dash.WithDataDir(t.TempDir())) },
			topology: "live",
			stats:    []string{"durability"},
			apply:    []string{"total"},
			readyz:   []string{"status"},
		},
		{
			name: "replica",
			mux: func(t *testing.T) http.Handler {
				_, replica, _ := leaderAndReplicaMux(t, 1)
				return replica
			},
			topology: "live",
			stats:    []string{"replication"},
			refusal:  http.StatusMisdirectedRequest,
			readyz:   []string{"replication", "status"},
		},
		{
			name:     "static",
			mux:      func(t *testing.T) http.Handler { return wireMux(t, dash.WithReadOnly()) },
			topology: "static",
			refusal:  http.StatusUnprocessableEntity,
			readyz:   []string{"status"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := tc.mux(t)

			rec := postJSON(t, mux, "/v1/admin/apply", update)
			if tc.apply == nil {
				if rec.Code != tc.refusal {
					t.Fatalf("apply: status %d, want %d (body %q)", rec.Code, tc.refusal, rec.Body.String())
				}
				if got := jsonKeys(t, rec.Body.Bytes()); !slices.Equal(got, []string{"error"}) {
					t.Errorf("refused apply keys = %v, want [error]", got)
				}
			} else {
				if rec.Code != http.StatusOK {
					t.Fatalf("apply: status %d (body %q)", rec.Code, rec.Body.String())
				}
				if got, want := jsonKeys(t, rec.Body.Bytes()), sortedKeys(tc.apply...); !slices.Equal(got, want) {
					t.Errorf("apply keys = %v, want %v", got, want)
				}
				var rep struct {
					Total json.RawMessage `json:"total"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
					t.Fatal(err)
				}
				if got, want := jsonKeys(t, rep.Total), sortedKeys(wireTotalKeys...); !slices.Equal(got, want) {
					t.Errorf("apply total keys = %v, want %v", got, want)
				}
			}

			rec = get(t, mux, "/v1/admin/stats")
			if rec.Code != http.StatusOK {
				t.Fatalf("stats: status %d", rec.Code)
			}
			if got, want := jsonKeys(t, rec.Body.Bytes()), sortedKeys(append(tc.stats, wireStatsKeys...)...); !slices.Equal(got, want) {
				t.Errorf("stats keys = %v, want %v", got, want)
			}
			var st struct {
				Topology string `json:"topology"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Topology != tc.topology {
				t.Errorf("topology = %q, want %q", st.Topology, tc.topology)
			}

			rec = get(t, mux, "/v1/readyz")
			if rec.Code != http.StatusOK {
				t.Fatalf("readyz: status %d", rec.Code)
			}
			if got, want := jsonKeys(t, rec.Body.Bytes()), sortedKeys(tc.readyz...); !slices.Equal(got, want) {
				t.Errorf("readyz keys = %v, want %v", got, want)
			}
		})
	}
}
