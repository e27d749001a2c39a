package search

import (
	"context"
	"runtime"
	"testing"
)

// TestClampWorkers: the one shared helper behind every worker-count knob —
// zero and negatives resolve to GOMAXPROCS, positives pass through. The
// regression this pins: every batch path routes through clampWorkers (in
// runPool), so a <= 0 knob can never reach a pool-size computation as
// "no workers".
func TestClampWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, procs}, {-1, procs}, {-100, procs}, {1, 1}, {3, 3}, {procs + 7, procs + 7},
	} {
		if got := clampWorkers(tc.in); got != tc.want {
			t.Errorf("clampWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestParallelSearchNegativeWorkers: a negative worker knob behaves like
// the GOMAXPROCS default end to end and returns correct results.
func TestParallelSearchNegativeWorkers(t *testing.T) {
	e := fooddbEngine(t)
	reqs := []Request{
		{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20},
		{Keywords: []string{"coffee"}, K: 3, SizeThreshold: 10},
	}
	want := e.ParallelSearch(context.Background(), reqs, 1)
	for _, workers := range []int{0, -5} {
		got := e.ParallelSearch(context.Background(), reqs, workers)
		for i := range want {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("workers=%d: errs %v %v", workers, got[i].Err, want[i].Err)
			}
			if len(got[i].Results) != len(want[i].Results) {
				t.Fatalf("workers=%d req %d: %d vs %d results",
					workers, i, len(got[i].Results), len(want[i].Results))
			}
			for j := range want[i].Results {
				if got[i].Results[j].URL != want[i].Results[j].URL ||
					got[i].Results[j].Score != want[i].Results[j].Score {
					t.Errorf("workers=%d req %d result %d differs", workers, i, j)
				}
			}
		}
	}
}
