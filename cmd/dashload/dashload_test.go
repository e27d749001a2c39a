package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/harness"
	"repro/internal/tpch"
)

var (
	testCorpusOnce sync.Once
	testCorpusVal  *corpus
	testCorpusErr  error
)

// testCorpus crawls a TPC-H corpus a fraction of the benchmark's size —
// the generators only need fragments with term statistics — once per
// test binary.
func testCorpus(t *testing.T) *corpus {
	t.Helper()
	testCorpusOnce.Do(func() {
		scale := tpch.Scale{Name: "tiny", Customers: 400, OrdersPerCust: 4, LinesPerOrder: 3, Parts: 100}
		db, app, err := harness.Workload{Scale: scale, Seed: datasetSeed, Query: datasetQuery}.Setup()
		if err != nil {
			testCorpusErr = err
			return
		}
		out, _, err := harness.RunCrawl(context.Background(), db, app, crawl.AlgIntegrated, crawl.Options{}, scale.Name)
		if err != nil {
			testCorpusErr = err
			return
		}
		testCorpusVal, testCorpusErr = newCorpus(out)
	})
	if testCorpusErr != nil {
		t.Fatal(testCorpusErr)
	}
	return testCorpusVal
}

func drawQueries(c *corpus, seed int64, n int) []string {
	s := newDistinctStream(c, seed)
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestQueryGeneratorsRepeatPerSeed(t *testing.T) {
	c := testCorpus(t)
	a, b, other := drawQueries(c, 7, 5000), drawQueries(c, 7, 5000), drawQueries(c, 8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different query streams")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds gave the same query stream")
	}
	if !reflect.DeepEqual(queryPool(c, 7, 500), queryPool(c, 7, 500)) {
		t.Fatal("equal seeds gave different query pools")
	}
	za, zb, zo := newZipfDraws(7, zipfS, zipfPool), newZipfDraws(7, zipfS, zipfPool), newZipfDraws(8, zipfS, zipfPool)
	same := true
	for i := 0; i < 5000; i++ {
		x := za.next()
		if x != zb.next() {
			t.Fatal("equal seeds gave different zipf draws")
		}
		if x < 0 || x >= zipfPool {
			t.Fatalf("zipf rank %d outside the pool", x)
		}
		same = same && x == zo.next()
	}
	if same {
		t.Fatal("different seeds gave the same zipf draws")
	}
}

func TestUncachedStreamCanonicallyDistinct(t *testing.T) {
	c := testCorpus(t)
	seen := make(map[string]bool)
	lengths := map[int]int{}
	for _, q := range drawQueries(c, 3, 200000) {
		kws := strings.Fields(q)
		lengths[len(kws)]++
		canon := canonicalQuery(kws)
		if seen[canon] {
			t.Fatalf("canonical query %q emitted twice", canon)
		}
		seen[canon] = true
	}
	for n := 1; n <= 3; n++ {
		if lengths[n] == 0 {
			t.Errorf("no %d-keyword queries in 200000 draws: %v", n, lengths)
		}
	}
}

func deltaBodies(t *testing.T, c *corpus, seed int64, n int) []byte {
	t.Helper()
	g := newDeltaGen(c, seed, writeBatch, recrawlEvery, recrawlIDs)
	var all []byte
	for i := 0; i < n; i++ {
		b, err := json.Marshal(g.next().body)
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, b...), '\n')
	}
	return all
}

func TestDeltaGeneratorRepeatsPerSeed(t *testing.T) {
	c := testCorpus(t)
	a, b, other := deltaBodies(t, c, 5, 400), deltaBodies(t, c, 5, 400), deltaBodies(t, c, 6, 400)
	if string(a) != string(b) {
		t.Fatal("equal seeds gave different apply bodies")
	}
	if string(a) == string(other) {
		t.Fatal("different seeds gave the same apply bodies")
	}
}

// TestDeltaGeneratorShape replays the stream against a model of the
// index: every request must be applicable in order, with no fragment
// named twice in one request.
func TestDeltaGeneratorShape(t *testing.T) {
	c := testCorpus(t)
	exists := make(map[string]bool)
	for _, f := range c.frags {
		exists[f.id.Key()] = true
	}
	g := newDeltaGen(c, 11, writeBatch, recrawlEvery, recrawlIDs)
	ops := map[string]int{}
	recrawls := 0
	for i := 1; i <= 2000; i++ {
		op := g.next()
		inBatch := make(map[string]bool)
		if len(op.recrawl) > 0 {
			recrawls++
			if i%recrawlEvery != 0 || len(op.recrawl) != recrawlIDs || len(op.delta.Changes) != 0 {
				t.Fatalf("request %d: malformed recrawl %+v", i, op.body)
			}
			for _, id := range op.recrawl {
				if !exists[id.Key()] || inBatch[id.Key()] {
					t.Fatalf("request %d recrawls %v: missing or repeated", i, id)
				}
				inBatch[id.Key()] = true
			}
			continue
		}
		if len(op.delta.Changes) != writeBatch || len(op.body.Changes) != writeBatch {
			t.Fatalf("request %d carries %d changes, want %d", i, len(op.delta.Changes), writeBatch)
		}
		for _, ch := range op.delta.Changes {
			key := ch.ID.Key()
			if inBatch[key] {
				t.Fatalf("request %d names fragment %v twice", i, ch.ID)
			}
			inBatch[key] = true
			ops[ch.Op.String()]++
			switch ch.Op {
			case crawl.OpInsertFragment:
				if exists[key] {
					t.Fatalf("request %d inserts existing fragment %v", i, ch.ID)
				}
				exists[key] = true
			case crawl.OpRemoveFragment:
				if !exists[key] {
					t.Fatalf("request %d removes missing fragment %v", i, ch.ID)
				}
				delete(exists, key)
			case crawl.OpUpdateFragment:
				if !exists[key] {
					t.Fatalf("request %d updates missing fragment %v", i, ch.ID)
				}
			}
			if ch.Op != crawl.OpRemoveFragment && (len(ch.TermCounts) == 0 || ch.TotalTerms <= 0) {
				t.Fatalf("request %d: %v of %v carries no terms", i, ch.Op, ch.ID)
			}
		}
	}
	if recrawls < 2000/recrawlEvery-1 {
		t.Errorf("%d recrawl requests in 2000, want every %dth", recrawls, recrawlEvery)
	}
	total := float64(ops["insert"] + ops["remove"] + ops["update"])
	for op, want := range map[string]float64{"update": 0.70, "insert": 0.15, "remove": 0.15} {
		if got := float64(ops[op]) / total; math.Abs(got-want) > 0.03 {
			t.Errorf("%s share %.3f, want about %.2f", op, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty inputs must read 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// (exclusive method) on inputs worked by hand.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestOKRatioAndGap(t *testing.T) {
	if got := okRatio(1000, 1); got != 0.999 {
		t.Errorf("okRatio(1000, 1) = %v", got)
	}
	if okRatio(0, 0) != 0 {
		t.Error("an empty run has no successes")
	}
	higher, lower := metricDef{Better: "higher"}, metricDef{Better: "lower"}
	if got := relGap(higher, 100, 90); got != 0.1 {
		t.Errorf("higher-is-better 100→90: gap %v, want 0.1", got)
	}
	if got := relGap(lower, 100, 90); got != -0.1 {
		t.Errorf("lower-is-better 100→90: gap %v, want -0.1", got)
	}
}

// TestCalibratorExchanges runs the yardstick for a moment: it must
// complete exchanges and charge the driver CPU time for them.
func TestCalibratorExchanges(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	s, err := cal.run(context.Background(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.requests < clientConns || s.cpuMS <= 0 {
		t.Errorf("calibration pass %+v: want exchanges on every connection and a positive cost", s)
	}
}

func TestSelfTimeAndNesting(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "key", StartNS: 5, EndNS: 15},
		{ID: 3, Parent: 1, Op: 1, Name: "engine", StartNS: 20, EndNS: 90},
		{ID: 4, Parent: 0, Op: 2, Name: "op", StartNS: 100, EndNS: 150},
		{ID: 5, Parent: 4, Op: 2, Name: "engine", StartNS: 110, EndNS: 140},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	if self["op"] != 20+20 || self["key"] != 10 || self["engine"] != 70+30 {
		t.Errorf("self times %v, want op 40, key 10, engine 100", self)
	}
	wrongOp := append([]span(nil), spans...)
	wrongOp[4].Op = 1
	if checkNesting(wrongOp) == nil {
		t.Error("a child in another operation than its parent must be rejected")
	}
	outside := append([]span(nil), spans...)
	outside[2].EndNS = 101
	if checkNesting(outside) == nil {
		t.Error("a child ending after its parent must be rejected")
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root, op := tr.root("op")
	child := tr.start("layer", root, op)
	tr.end(child)
	tr.end(root)
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	if len(tr.durations("layer")) != 1 || len(tr.durations("op")) != 1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("spans file has %d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || s.Parent != root || s.Op != op {
		t.Fatalf("second line %q decodes to %+v (%v)", lines[1], s, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json — what the acceptance
// driver reads — in step with the tables this package reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		names[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}
