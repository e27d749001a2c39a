package main

// sweep.go is the open-loop view of search_uncached: requests are sent on
// a schedule whether or not earlier ones have completed, and each is timed
// from the instant it was due, so a stall charges every request queued
// behind it (no coordinated omission). It is reported, never gated: a
// fixed offered rate sits at a different utilisation on every machine.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	sweepStep = 10 * time.Second
	// sweepConns bounds in-flight requests; past saturation the schedule
	// falls behind instead and the lateness shows it.
	sweepConns = 32
	// A step holds while p99 stays under sweepLimitMS and the generator
	// ends the step less than sweepLateMS behind its schedule.
	sweepLimitMS = 25.0
	sweepLateMS  = 5.0
)

var sweepPercents = []int{25, 50, 75, 100, 125}

// sweepStepResult is one offered rate.
type sweepStepResult struct {
	Percent     int     `json:"percent_of_closed_loop"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Sent        int     `json:"sent"`
	Failed      int     `json:"failed"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	// LateP99MS and LateEndMS are how far behind its schedule the
	// generator sent: over the whole step, and over its last twentieth.
	LateP99MS float64 `json:"generator_late_p99_ms"`
	LateEndMS float64 `json:"generator_late_end_ms"`
	Holds     bool    `json:"holds"`
}

// openLoopStep offers rate requests per second for d.
func openLoopStep(ctx context.Context, conns []*conn, base string, rate float64, d time.Duration, next func() string) sweepStepResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var claimed atomic.Int64
	type rec struct{ latMS, lateMS float64 }
	recs := make([][]rec, len(conns))
	failed := make([]int, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := claimed.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				r, err := conns[w].search(ctx, base, next(), 0)
				if err != nil || r.status != 200 {
					failed[w]++
					continue
				}
				recs[w] = append(recs[w], rec{
					latMS:  float64(time.Since(due)) / 1e6,
					lateMS: float64(sent.Sub(due)) / 1e6,
				})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lat, late, lateEnd []float64
	res := sweepStepResult{OfferedRPS: rate}
	for w := range recs {
		res.Failed += failed[w]
		for _, r := range recs[w] {
			lat = append(lat, r.latMS)
			late = append(late, r.lateMS)
		}
		// Each worker's records are in send order: its last twentieth is
		// the end of the step.
		for _, r := range recs[w][len(recs[w])-len(recs[w])/20:] {
			lateEnd = append(lateEnd, r.lateMS)
		}
	}
	res.Sent = len(lat) + res.Failed
	res.AchievedRPS = float64(len(lat)) / elapsed.Seconds()
	res.P50MS, res.P99MS = percentile(lat, 0.50), percentile(lat, 0.99)
	res.LateP99MS, res.LateEndMS = percentile(late, 0.99), median(lateEnd)
	res.Holds = res.Failed == 0 && res.P99MS <= sweepLimitMS && res.LateEndMS <= sweepLateMS
	return res
}

// runSweep measures search_uncached's closed-loop throughput, then offers
// 25…125 % of it open loop, and prints the result as JSON
// (bench/BENCH_serve.json is a recorded copy).
func runSweep(ctx context.Context, cfg runConfig, w io.Writer) error {
	ref, err := newReference(ctx, 1)
	if err != nil {
		return err
	}
	server, err := startServer(ctx, cfg.serveBin, filepath.Join(cfg.tmpDir, "sweep.log"), datasetArgs...)
	if err != nil {
		return err
	}
	defer server.stop()
	stream := newDistinctStream(ref.corpus, cfg.seed)
	var mu sync.Mutex
	next := func() string {
		mu.Lock()
		defer mu.Unlock()
		return stream.next()
	}
	conns := make([]*conn, sweepConns)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	closed := conns[:clientConns]
	if warm, _, _ := searchPhase(ctx, closed, server.url, cfg.warmup, func(int) string { return next() }, -1); len(warm.failed) > 0 {
		return fmt.Errorf("warm-up: %w", warm.failed[0])
	}
	log, elapsed, _ := searchPhase(ctx, closed, server.url, sweepStep, func(int) string { return next() }, -1)
	if len(log.failed) > 0 {
		return fmt.Errorf("closed-loop baseline: %w", log.failed[0])
	}
	baseRPS := float64(len(log.rttMS)) / elapsed.Seconds()

	metrics := map[string]metricValue{}
	var steps []sweepStepResult
	knee := 0
	for _, pct := range sweepPercents {
		step := openLoopStep(ctx, conns, server.url, baseRPS*float64(pct)/100, sweepStep, next)
		step.Percent = pct
		steps = append(steps, step)
		metrics[fmt.Sprintf("loadgen.sweep_p50_ms.%d", pct)] = metricValue{step.P50MS, "ms"}
		metrics[fmt.Sprintf("loadgen.sweep_p99_ms.%d", pct)] = metricValue{step.P99MS, "ms"}
		if step.Holds {
			knee = pct
		}
	}
	metrics["loadgen.sweep_knee_pct"] = metricValue{float64(knee), "%"}
	env := collectEnv(cfg, ref)
	doc := map[string]any{
		"benchmark": "dashload -sweep: open-loop search_uncached, latency timed from the scheduled send time; reported, not gated",
		"environment": map[string]any{
			"nproc": env.nproc, "gomaxprocs_driver": env.gomaxprocs, "gomaxprocs_servers": serverGOMAXPROCS(env.nproc),
			"go": env.goVersion, "cpu": env.cpuModel, "kernel": env.kernel,
			"dataset":   fmt.Sprintf("%s %s seed %d", datasetName, datasetQuery, datasetSeed),
			"fragments": env.fragments, "keywords": env.keywords, "seed": env.seed,
			"step_seconds": sweepStep.Seconds(), "connections": sweepConns,
		},
		"closed_loop_search_rps": baseRPS,
		"limit":                  fmt.Sprintf("a step holds while p99 <= %g ms, nothing fails, and the generator ends it <= %g ms behind schedule", sweepLimitMS, sweepLateMS),
		"steps":                  steps,
		"metrics":                metrics,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
