package main

// workload.go runs the four closed-loop HTTP workloads against real
// dashserve processes and turns what the clients saw, plus the servers'
// own counters read before and after the window, into metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// clientConns is the closed-loop connection count of the two search
	// workloads: at most nproc on the 2-vCPU sandbox the bounds were
	// sized on, so the generator never outnumbers the cores it shares
	// with the server.
	clientConns = 2
	// sampleEvery keeps every n-th search response for the answer oracle.
	sampleEvery = 64
	// zipfPool and zipfS shape search_zipf_hot: 2000 distinct queries
	// (their results fit the 32 MiB cache many times over), rank
	// popularity Zipf(1.2). Which queries are popular is part of the
	// workload's definition (poolSeed), the same for every run; the run's
	// seed decides the order they arrive in. Otherwise one run's hottest
	// query is cheap and the next one's expensive, and the seed, not the
	// server, sets the throughput.
	zipfPool = 2000
	zipfS    = 1.2
	poolSeed = 42
	// Write-workload shapes.
	writeShards  = 2 // write_durable's server shard count
	writeBatch   = 8 // fragment changes per write_durable apply
	recrawlEvery = 4 // every 4th write_durable request is a recrawl…
	recrawlIDs   = 4 // …of this many fragments updated earlier
	rywBatch     = 4 // fragment changes per replica_ryw apply
	probeQueries = 200
	// timedBoots is how often a run boots its server set; setup_s is the
	// median. It is part of setup_s's definition, so it is not a flag.
	timedBoots = 3
	// calSlice is the length of one calibration pass; one runs before and
	// one after every timed boot.
	calSlice = 400 * time.Millisecond
	// rssEvery is how often the servers' resident memory is read during a
	// window; server_rss_mb is the 90th percentile of the readings (the
	// peak is a lottery of coinciding background work, the median lands
	// on the ramp while a cache fills: bench/AA.md §10).
	rssEvery = 200 * time.Millisecond
	// cpuRefEvery and cpuRefSteps size the in-band reference kernel
	// (about 1 % duty on one worker).
	cpuRefEvery = 250 * time.Millisecond
	cpuRefSteps = 2_000_000
)

// runConfig is one run's settings.
type runConfig struct {
	serveBin string
	tmpDir   string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	spans    string // directory the traced run writes its spans to
}

// runResult is everything one run of one workload measured.
type runResult struct {
	workload  string
	e2e       metrics
	layer     metrics
	attempted int
	failed    int
	problems  []string // the first few failures, for the report
	spansPath string   // where the traced run wrote its spans
	env       envInfo
}

func (r *runResult) fail(err error) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
}

// sampled is one kept search response awaiting the oracle.
type sampled struct {
	q    string
	body []byte
	// state is the index state the server answered from, counted in
	// acknowledged applies (0 on a read-only workload).
	state int
}

// searchLog is what one worker saw of its searches in one phase.
type searchLog struct {
	rttMS       []float64
	overheadMS  []float64 // rtt − X-Elapsed
	engineMS    []float64 // X-Elapsed of cache misses
	respBytes   int64
	hits        int
	failed      []error
	samples     []sampled
	sinceSample int
}

// record notes one search; state ≥ 0 makes it a candidate for the oracle
// (every sampleEvery-th is kept), answered from that index state.
func (l *searchLog) record(q string, r searchReply, err error, state int) {
	if err == nil && r.status != 200 {
		err = fmt.Errorf("query %q: status %d: %s", q, r.status, r.body)
	}
	if err != nil {
		l.failed = append(l.failed, err)
		return
	}
	ms := float64(r.rtt) / 1e6
	l.rttMS = append(l.rttMS, ms)
	l.overheadMS = append(l.overheadMS, ms-float64(r.elapsed)/1e6)
	if r.cacheHit {
		l.hits++
	} else {
		l.engineMS = append(l.engineMS, float64(r.elapsed)/1e6)
	}
	l.respBytes += int64(len(r.body))
	if state < 0 {
		return
	}
	if l.sinceSample++; l.sinceSample == sampleEvery {
		l.sinceSample = 0
		l.samples = append(l.samples, sampled{q: q, body: append([]byte(nil), r.body...), state: state})
	}
}

func (l *searchLog) merge(o *searchLog) {
	l.rttMS = append(l.rttMS, o.rttMS...)
	l.overheadMS = append(l.overheadMS, o.overheadMS...)
	l.engineMS = append(l.engineMS, o.engineMS...)
	l.respBytes += o.respBytes
	l.hits += o.hits
	l.failed = append(l.failed, o.failed...)
	l.samples = append(l.samples, o.samples...)
}

// applyLog is what the writer saw of its applies in one phase.
type applyLog struct {
	explicitMS   []float64 // explicit-change requests
	recrawlMS    []float64 // recrawl requests
	changes      int       // fragment changes the server reported applied
	clonedChunks int
	clonedLists  int
	failed       []error
}

// record notes one acknowledged apply.
func (l *applyLog) record(op *applyOp, rep applyReply, rtt time.Duration) {
	ms := float64(rtt) / 1e6
	if len(op.recrawl) > 0 {
		l.recrawlMS = append(l.recrawlMS, ms)
	} else {
		l.explicitMS = append(l.explicitMS, ms)
	}
	l.changes += rep.Total.Inserted + rep.Total.Removed + rep.Total.Updated
	l.clonedChunks += rep.Total.ClonedChunks
	l.clonedLists += rep.Total.ClonedLists
}

// cpuRef runs the fixed reference kernel and returns its wall time: a
// diagnostic of how fast this CPU is right now, never used to normalise.
func cpuRef() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < cpuRefSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	cpuRefSink = x
	return float64(time.Since(start)) / 1e6
}

// cpuRefSink keeps the kernel's result live so the loop is not removed.
var cpuRefSink uint64

// counters is the servers' and the driver's own state at one instant.
type counters struct {
	at      time.Time
	stats   []serverStats
	cpu     []float64
	selfCPU float64
}

func takeCounters(ctx context.Context, c *conn, servers []*serverProc) (counters, error) {
	out := counters{at: time.Now()}
	for _, s := range servers {
		st, err := c.stats(ctx, s.url)
		if err != nil {
			return counters{}, fmt.Errorf("stats of %s: %w", s.url, err)
		}
		cpu, err := s.cpuSeconds()
		if err != nil {
			return counters{}, err
		}
		out.stats = append(out.stats, st)
		out.cpu = append(out.cpu, cpu)
	}
	self, err := selfCPUSeconds()
	if err != nil {
		return counters{}, err
	}
	out.selfCPU = self
	return out, nil
}

// window is what surrounds one measured phase: the servers' and the
// driver's counters before and after it, and the servers' summed resident
// memory read every rssEvery while it ran.
type window struct {
	before, after counters
	rssMiB        []float64
}

// measure runs phase between two readings of the counters.
func measure(ctx context.Context, c *conn, servers []*serverProc, phase func()) (window, error) {
	var w window
	var err error
	if w.before, err = takeCounters(ctx, c, servers); err != nil {
		return window{}, err
	}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			case <-tick.C:
			}
			var sum float64
			for _, s := range servers {
				rss, err := s.statusMiB("VmRSS")
				if err != nil {
					sampled <- err
					return
				}
				sum += rss
			}
			w.rssMiB = append(w.rssMiB, sum)
		}
	}()
	phase()
	close(stop)
	if err := <-sampled; err != nil {
		return window{}, err
	}
	if w.after, err = takeCounters(ctx, c, servers); err != nil {
		return window{}, err
	}
	return w, nil
}

// searchPhase runs one closed-loop search worker per connection for d and
// returns their merged log, the wall time they ran and the reference
// kernel's timings. next(worker) yields that worker's next query. state
// is the index state the answers come from: 0 on a read-only workload, -1
// beside a writer, where no single state can be named (see
// runWriteDurable) and no answer is kept for the oracle.
func searchPhase(ctx context.Context, conns []*conn, base string, d time.Duration, next func(worker int) string, state int) (*searchLog, time.Duration, []float64) {
	logs := make([]*searchLog, len(conns))
	var refMS []float64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range conns {
		logs[w] = &searchLog{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nextRef := start.Add(cpuRefEvery)
			for now := start; now.Before(deadline) && ctx.Err() == nil; now = time.Now() {
				if w == 0 && now.After(nextRef) {
					refMS = append(refMS, cpuRef())
					nextRef = time.Now().Add(cpuRefEvery)
				}
				q := next(w)
				r, err := conns[w].search(ctx, base, q, 0)
				logs[w].record(q, r, err, state)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := logs[0]
	for _, l := range logs[1:] {
		all.merge(l)
	}
	return all, elapsed, refMS
}

// nominalCalMS is what one calibration exchange costs the driver on the
// sizing sandbox in its undisturbed state. It only fixes the scale setup_s
// is stated on: parent and change are always measured by one driver build
// on one host, so it cancels in every comparison.
const nominalCalMS = 0.032

// bootServers starts the workload's server set timedBoots times (once on
// a traced run, which reports no end-to-end metric), timing each from the
// first spawn to the last server answering /v1/readyz; all but the last
// set are killed again. Each boot gets a fresh directory. It fills
// setup_s: the median of the boots, each restated at nominal machine
// speed by the calibration passes either side of it — nothing a server
// change touches, taken within half a second of the boot they restate.
func bootServers(ctx context.Context, cfg runConfig, res *runResult, boot func(dir string) ([]*serverProc, error)) ([]*serverProc, string, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, "", err
	}
	defer cal.close()
	n := timedBoots
	if cfg.trace {
		n = 1
	}
	before, err := cal.run(ctx, calSlice)
	if err != nil {
		return nil, "", err
	}
	var raw, restated, calMS []float64
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.tmpDir, fmt.Sprintf("boot%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", err
		}
		servers, err := boot(dir)
		if err != nil {
			return nil, "", err
		}
		after, err := cal.run(ctx, calSlice)
		if err != nil {
			for _, s := range servers {
				s.kill()
			}
			return nil, "", err
		}
		var total time.Duration
		for _, s := range servers {
			total += s.bootTime
		}
		speed := (before.cpuMS + after.cpuMS) / 2
		raw = append(raw, total.Seconds())
		restated = append(restated, total.Seconds()*nominalCalMS/speed)
		calMS = append(calMS, speed)
		before = after
		if i == n-1 {
			res.e2e.set("setup_s", median(restated), n)
			res.layer.set("loadgen.raw_setup_s", median(raw), n)
			res.layer.set("loadgen.cal_cpu_ms", median(calMS), n)
			return servers, dir, nil
		}
		for _, s := range servers {
			s.kill()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
	}
}

// subSeed derives the seed of a run's k-th generator, so that no two
// generators of one run, or of runs with neighbouring seeds, share a
// random stream.
func subSeed(seed int64, k int) int64 { return seed*1000003 + int64(k) }

func stopAll(servers []*serverProc) {
	for i := len(servers) - 1; i >= 0; i-- {
		servers[i].stop()
	}
}

// runWorkload builds the reference, runs one workload and verifies it.
func runWorkload(ctx context.Context, cfg runConfig, name string) (*runResult, error) {
	shards := 1
	if name == "write_durable" {
		shards = writeShards
	}
	ref, err := newReference(ctx, shards)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := os.RemoveAll(cfg.tmpDir); err != nil {
			fmt.Fprintln(os.Stderr, "dashload: remove run dir:", err)
		}
	}()
	res := &runResult{workload: name, e2e: metrics{}, layer: metrics{}}
	res.layer.set("tpch.generate_s", ref.generateS, 1)
	res.layer.set("crawl.integrated_s", ref.crawlS, 1)
	res.layer.set("fragindex.build_s", ref.buildS, 1)
	switch name {
	case "search_uncached", "search_zipf_hot":
		err = runSearch(ctx, cfg, ref, res)
	case "write_durable":
		err = runWriteDurable(ctx, cfg, ref, res)
	case "replica_ryw":
		err = runReplicaRYW(ctx, cfg, ref, res)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cfg.trace {
		if err := runTrace(ctx, cfg, ref, res); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", name, err)
		}
	}
	res.layer.set("loadgen.ok_ratio", okRatio(res.attempted, res.failed), res.attempted)
	res.env = collectEnv(cfg, ref)
	return res, nil
}

// searchMetrics fills the metrics every workload derives from its window
// of searches.
func searchMetrics(res *runResult, log *searchLog, elapsed time.Duration) {
	n := len(log.rttMS)
	res.e2e.set("search_rps", float64(n)/elapsed.Seconds(), n)
	res.layer.set("dashserve.search_p50_ms", percentile(log.rttMS, 0.50), n)
	res.e2e.set("search_p95_ms", percentile(log.rttMS, 0.95), n)
	res.layer.set("dashserve.search_p99_ms", percentile(log.rttMS, 0.99), n)
	res.layer.set("dashserve.http_overhead_p50_ms", percentile(log.overheadMS, 0.50), n)
	if n > 0 {
		res.layer.set("dashserve.resp_bytes_per_search", float64(log.respBytes)/float64(n), n)
	}
	res.layer.set("search.engine_elapsed_p50_ms", percentile(log.engineMS, 0.50), len(log.engineMS))
	res.layer.set("search.engine_elapsed_p99_ms", percentile(log.engineMS, 0.99), len(log.engineMS))
}

// windowMetrics fills the metrics derived from the servers' counters
// before and after the window, then restates the timing metrics at
// nominal machine speed (see speedNormalise). ops is every operation
// completed in the window, requests every HTTP request the generator
// issued in it (operations plus replica_ryw's readiness polls).
func windowMetrics(res *runResult, servers []*serverProc, w window, ops, requests int, refMS []float64) error {
	before, after := w.before, w.after
	secs := after.at.Sub(before.at).Seconds()
	var cpu, peak float64
	for i, s := range servers {
		cpu += after.cpu[i] - before.cpu[i]
		hwm, err := s.statusMiB("VmHWM")
		if err != nil {
			return err
		}
		peak += hwm
	}
	if ops > 0 {
		res.e2e.set("cpu_ms_per_op", cpu*1e3/float64(ops), ops)
	}
	if requests > 0 {
		res.layer.set("loadgen.cpu_ms_per_request", (after.selfCPU-before.selfCPU)*1e3/float64(requests), requests)
	}
	res.e2e.set("server_rss_mb", percentile(w.rssMiB, 0.90), len(w.rssMiB))
	res.layer.set("dashserve.peak_rss_mb", peak, len(servers))
	res.layer.set("loadgen.cpu_ref_ms", median(refMS), len(refMS))
	// The first server is the one that publishes (leader or standalone).
	b, a := before.stats[0], after.stats[0]
	res.layer.set("fragindex.publishes_per_s", float64(a.Publishes-b.Publishes)/secs, int(a.Publishes-b.Publishes))
	res.layer.set("fragindex.compactions", float64(a.Compactions-b.Compactions), 1)
	if a.Durability != nil && b.Durability != nil {
		res.layer.set("durable.checkpoints", float64(a.Durability.Checkpoints-b.Durability.Checkpoints), 1)
	}
	// The cache that matters is the one in front of the searched server:
	// the last of the set (the replica has none).
	bc, ac := before.stats[len(servers)-1].Cache, after.stats[len(servers)-1].Cache
	if ac != nil && bc != nil {
		hits := float64(ac.Hits + ac.Collapsed - bc.Hits - bc.Collapsed)
		lookups := hits + float64(ac.Misses-bc.Misses)
		if lookups > 0 {
			res.layer.set("search.cache_hit_ratio", hits/lookups, int(lookups))
		}
		res.layer.set("search.cache_evictions_per_s", float64(ac.Evictions-bc.Evictions)/secs, int(ac.Evictions-bc.Evictions))
	}
	speedNormalise(res)
	return nil
}

// nominalGenMS is the generator's own CPU time per HTTP request on each
// workload, as the sizing sandbox measures it in its undisturbed state.
// Like nominalCalMS the values only fix a scale, and are frozen with the
// benchmark so that the scale does not move.
var nominalGenMS = map[string]float64{
	"search_uncached": 0.135,
	"search_zipf_hot": 0.056,
	"write_durable":   0.187,
	"replica_ryw":     0.095,
}

// speedNormalise restates the window's timing metrics at nominal machine
// speed. The sandbox's speed changes by up to 40 % within seconds and for
// minutes at a time (shared-host contention a pure ALU kernel does not
// even see — loadgen.cpu_ref_ms), which no window length averages out.
// The generator's own CPU time per request is the in-band yardstick: it is
// benchmark code, runs on the same cores at the same instants, and slows
// with the machine by the same factor the servers do. The factor is this
// run's generator cost over its nominal value; times are divided by it,
// rates multiplied. bench/AA.md has the evidence that it removes the
// machine's drift, and the A/B runs that show what it does to a real
// change; the raw readings stay visible as loadgen.raw_*.
func speedNormalise(res *runResult) {
	g, ok := res.layer["loadgen.cpu_ms_per_request"]
	nominal := nominalGenMS[res.workload]
	if !ok || g.Value <= 0 || nominal <= 0 {
		return
	}
	factor := g.Value / nominal
	res.layer.set("loadgen.speed_factor", factor, g.N)
	for _, d := range endToEnd {
		s, ok := res.e2e[d.Name]
		if !ok || !windowTimed[d.Name] {
			continue
		}
		res.layer.set("loadgen.raw_"+d.Name, s.Value, s.N)
		if d.Better == "higher" {
			s.Value *= factor
		} else {
			s.Value /= factor
		}
		res.e2e[d.Name] = s
	}
}

// windowTimed names the end-to-end metrics timed in the window, which
// scale with the machine's speed during it. setup_s has its own yardstick
// (bootServers); memory has none.
var windowTimed = map[string]bool{
	"ops_per_s": true, "op_p50_ms": true, "search_rps": true, "search_p95_ms": true, "cpu_ms_per_op": true,
}

// verifySamples replays the acknowledged applies on the reference, in
// order, and checks every kept response at the state it was answered
// from; each sample stands for a search already counted as attempted. On
// return the reference holds every acknowledged apply.
func verifySamples(ctx context.Context, ref *reference, res *runResult, acked []*applyOp, samples []sampled) error {
	check := func(state int) {
		for _, s := range samples {
			if s.state == state {
				if err := ref.check(ctx, s.q, s.body); err != nil {
					res.fail(err)
				}
			}
		}
	}
	check(0)
	for i, op := range acked {
		if err := ref.replay(ctx, op); err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		check(i + 1)
	}
	return nil
}

// probe asks a server the probe queries and checks every answer against
// the reference; each probe is one more attempted operation.
func probe(ctx context.Context, c *conn, base string, ref *reference, res *runResult, queries []string, what string) {
	for _, q := range queries {
		res.attempted++
		r, err := c.search(ctx, base, q, 0)
		if err == nil && r.status != 200 {
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		}
		if err == nil {
			err = ref.check(ctx, q, r.body)
		}
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", what, err))
		}
	}
}

// runSearch is search_uncached and search_zipf_hot: one default dashserve
// (1 shard, 32 MiB cache), clientConns closed-loop connections.
func runSearch(ctx context.Context, cfg runConfig, ref *reference, res *runResult) error {
	servers, _, err := bootServers(ctx, cfg, res, func(dir string) ([]*serverProc, error) {
		s, err := startServer(ctx, cfg.serveBin, filepath.Join(dir, "server.log"), datasetArgs...)
		if err != nil {
			return nil, err
		}
		return []*serverProc{s}, nil
	})
	if err != nil {
		return err
	}
	defer stopAll(servers)
	base := servers[0].url

	var next func(worker int) string
	if res.workload == "search_uncached" {
		stream := newDistinctStream(ref.corpus, cfg.seed)
		var mu sync.Mutex
		next = func(int) string {
			mu.Lock()
			defer mu.Unlock()
			return stream.next()
		}
	} else {
		pool := queryPool(ref.corpus, poolSeed, zipfPool)
		draws := make([]*zipfDraws, clientConns)
		for w := range draws {
			draws[w] = newZipfDraws(subSeed(cfg.seed, 1+w), zipfS, zipfPool)
		}
		next = func(w int) string { return pool[draws[w].next()] }
	}

	conns := make([]*conn, clientConns)
	for w := range conns {
		conns[w] = newConn()
		defer conns[w].close()
	}
	ctl := newConn()
	defer ctl.close()

	// Warm-up: a disjoint prefix of the same generators, excluded from
	// every number.
	if warm, _, _ := searchPhase(ctx, conns, base, cfg.warmup, next, 0); len(warm.failed) > 0 {
		return fmt.Errorf("warm-up: %w", warm.failed[0])
	}
	var log *searchLog
	var elapsed time.Duration
	var refMS []float64
	win, err := measure(ctx, ctl, servers, func() {
		log, elapsed, refMS = searchPhase(ctx, conns, base, cfg.window, next, 0)
	})
	if err != nil {
		return err
	}

	res.attempted = len(log.rttMS) + len(log.failed)
	for _, err := range log.failed {
		res.fail(err)
	}
	searchMetrics(res, log, elapsed)
	res.e2e.set("ops_per_s", res.e2e["search_rps"].Value, len(log.rttMS))
	res.e2e.set("op_p50_ms", res.layer["dashserve.search_p50_ms"].Value, len(log.rttMS))
	if err := windowMetrics(res, servers, win, len(log.rttMS), res.attempted, refMS); err != nil {
		return err
	}
	return verifySamples(ctx, ref, res, nil, log.samples)
}

// writeLoop is the closed-loop writer: one apply at a time until the
// deadline. Acknowledged requests are appended to acked in order.
func writeLoop(ctx context.Context, c *conn, base string, gen *deltaGen, deadline time.Time, log *applyLog, acked *[]*applyOp) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		op := gen.next()
		body, err := json.Marshal(op.body)
		if err != nil {
			log.failed = append(log.failed, err)
			return
		}
		rep, rtt, err := c.apply(ctx, base, body)
		if err != nil {
			log.failed = append(log.failed, err)
			continue
		}
		*acked = append(*acked, op)
		log.record(op, rep, rtt)
	}
}

// applyMetrics fills the per-layer metrics of a window of applies.
func applyMetrics(res *runResult, log *applyLog, elapsed time.Duration) {
	n := len(log.explicitMS) + len(log.recrawlMS)
	all := append(append([]float64(nil), log.explicitMS...), log.recrawlMS...)
	res.layer.set("durable.apply_p50_ms", percentile(log.explicitMS, 0.50), len(log.explicitMS))
	res.layer.set("durable.apply_p99_ms", percentile(all, 0.99), n)
	res.layer.set("durable.apply_changes_per_s", float64(log.changes)/elapsed.Seconds(), log.changes)
	res.layer.set("crawl.recrawl_apply_p50_ms", percentile(log.recrawlMS, 0.50), len(log.recrawlMS))
	if n > 0 {
		res.layer.set("fragindex.cloned_chunks_per_apply", float64(log.clonedChunks)/float64(n), n)
		res.layer.set("fragindex.cloned_lists_per_apply", float64(log.clonedLists)/float64(n), n)
	}
}

// runWriteDurable is write_durable: one durable 2-shard dashserve, a
// closed-loop writer on one connection and a closed-loop reader of the
// zipf pool on another.
func runWriteDurable(ctx context.Context, cfg runConfig, ref *reference, res *runResult) error {
	serverArgs := func(dir string) []string {
		return append(append([]string(nil), datasetArgs...),
			"-shards", fmt.Sprint(writeShards), "-data-dir", filepath.Join(dir, "data"), "-sync", "always", "-gc-interval", "2s")
	}
	servers, dir, err := bootServers(ctx, cfg, res, func(dir string) ([]*serverProc, error) {
		s, err := startServer(ctx, cfg.serveBin, filepath.Join(dir, "server.log"), serverArgs(dir)...)
		if err != nil {
			return nil, err
		}
		return []*serverProc{s}, nil
	})
	if err != nil {
		return err
	}
	defer func() { stopAll(servers) }()
	base := servers[0].url

	gen := newDeltaGen(ref.corpus, cfg.seed, writeBatch, recrawlEvery, recrawlIDs)
	pool := queryPool(ref.corpus, poolSeed, zipfPool)
	draws := newZipfDraws(subSeed(cfg.seed, 1), zipfS, zipfPool)
	writer, reader, ctl := newConn(), newConn(), newConn()
	defer writer.close()
	defer reader.close()
	defer ctl.close()

	var acked []*applyOp
	phase := func(d time.Duration) (*applyLog, *searchLog, time.Duration, []float64) {
		alog := &applyLog{}
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLoop(ctx, writer, base, gen, start.Add(d), alog, &acked)
		}()
		slog, _, refMS := searchPhase(ctx, []*conn{reader}, base, d, func(int) string { return pool[draws.next()] }, -1)
		wg.Wait()
		return alog, slog, time.Since(start), refMS
	}

	if alog, slog, _, _ := phase(cfg.warmup); len(alog.failed)+len(slog.failed) > 0 {
		return fmt.Errorf("warm-up: %w", errors.Join(append(alog.failed, slog.failed...)...))
	}
	var alog *applyLog
	var slog *searchLog
	var elapsed time.Duration
	var refMS []float64
	win, err := measure(ctx, ctl, servers, func() { alog, slog, elapsed, refMS = phase(cfg.window) })
	if err != nil {
		return err
	}

	applies := len(alog.explicitMS) + len(alog.recrawlMS)
	res.attempted = len(slog.rttMS) + len(slog.failed) + applies + len(alog.failed)
	for _, err := range append(alog.failed, slog.failed...) {
		res.fail(err)
	}
	searchMetrics(res, slog, elapsed)
	applyMetrics(res, alog, elapsed)
	res.e2e.set("ops_per_s", float64(alog.changes)/elapsed.Seconds(), alog.changes)
	res.e2e.set("op_p50_ms", percentile(alog.explicitMS, 0.50), len(alog.explicitMS))
	if err := windowMetrics(res, servers, win, len(slog.rttMS)+applies, res.attempted, refMS); err != nil {
		return err
	}

	// Acked ⇒ applied: replay the acknowledged sequence on the reference
	// and compare probe answers; acked ⇒ durable: SIGKILL the server,
	// restart it on the same data dir and compare again. The window's own
	// reads are checked for status only: each raced an apply whose two
	// shards publish independently while document frequencies are summed
	// over both, so it may carry scores that no single state of the index
	// reproduces (one in seven sampled reads did when this was tried).
	if err := verifySamples(ctx, ref, res, acked, nil); err != nil {
		return err
	}
	probes := queryPool(ref.corpus, subSeed(cfg.seed, 2), probeQueries)
	probe(ctx, ctl, base, ref, res, probes, "after window")
	servers[0].kill()
	restarted, err := startServer(ctx, cfg.serveBin, filepath.Join(dir, "restart.log"), serverArgs(dir)...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	servers = []*serverProc{restarted}
	res.layer.set("durable.recover_s", restarted.bootTime.Seconds(), 1)
	probe(ctx, ctl, restarted.url, ref, res, probes, "after SIGKILL and restart")
	return nil
}

// runReplicaRYW is replica_ryw: a durable 1-shard leader and a replica
// tailing it, driven by one strictly serial loop so three processes never
// contend for two cores.
func runReplicaRYW(ctx context.Context, cfg runConfig, ref *reference, res *runResult) error {
	servers, _, err := bootServers(ctx, cfg, res, func(dir string) ([]*serverProc, error) {
		leader, err := startServer(ctx, cfg.serveBin, filepath.Join(dir, "leader.log"),
			append(append([]string(nil), datasetArgs...), "-data-dir", filepath.Join(dir, "data"), "-gc-interval", "2s")...)
		if err != nil {
			return nil, err
		}
		replica, err := startServer(ctx, cfg.serveBin, filepath.Join(dir, "replica.log"),
			append(append([]string(nil), datasetArgs...), "-replica-of", leader.url)...)
		if err != nil {
			leader.kill()
			return nil, err
		}
		return []*serverProc{leader, replica}, nil
	})
	if err != nil {
		return err
	}
	defer stopAll(servers)
	leader, replica := servers[0].url, servers[1].url

	gen := newDeltaGen(ref.corpus, cfg.seed, rywBatch, 0, 0)
	// The reads walk the fixed pool in a seeded order, so that every run
	// asks (nearly) the same set of queries and the seed decides only when.
	pool := queryPool(ref.corpus, poolSeed, zipfPool)
	order := rand.New(rand.NewSource(subSeed(cfg.seed, 1))).Perm(len(pool))
	reads := 0
	nextQuery := func() string {
		q := pool[order[reads%len(order)]]
		reads++
		return q
	}
	c, ctl := newConn(), newConn()
	defer c.close()
	defer ctl.close()

	type cycleLog struct {
		alog      applyLog
		slog      searchLog
		visibleMS []float64 // ack received → replica shows the epoch
		writeVis  []float64 // apply sent → replica shows the epoch
		polls     int
		rywReads  int
		rywFwd    int // read-your-writes reads another node answered
		refMS     []float64
	}
	var acked []*applyOp
	phase := func(d time.Duration) (*cycleLog, time.Duration) {
		cl := &cycleLog{}
		start := time.Now()
		nextRef := start.Add(cpuRefEvery)
		for deadline := start.Add(d); time.Now().Before(deadline) && ctx.Err() == nil; {
			if time.Now().After(nextRef) {
				cl.refMS = append(cl.refMS, cpuRef())
				nextRef = time.Now().Add(cpuRefEvery)
			}
			op := gen.next()
			body, err := json.Marshal(op.body)
			if err != nil {
				cl.alog.failed = append(cl.alog.failed, err)
				break
			}
			// (1) apply on the leader.
			sent := time.Now()
			rep, rtt, err := c.apply(ctx, leader, body)
			if err != nil {
				cl.alog.failed = append(cl.alog.failed, err)
				continue
			}
			ackAt := time.Now()
			acked = append(acked, op)
			cl.alog.record(op, rep, rtt)
			// (2) poll the replica until it has applied the epoch.
			epoch := rep.Total.Epoch
			for waitUntil := ackAt.Add(10 * time.Second); ; {
				var rz readyz
				cl.polls++
				if err := c.getJSON(ctx, replica+"/v1/readyz", &rz); err != nil {
					cl.alog.failed = append(cl.alog.failed, fmt.Errorf("replica readyz: %w", err))
					break
				}
				if rz.Replication != nil && rz.Replication.MinApplied >= epoch {
					now := time.Now()
					cl.visibleMS = append(cl.visibleMS, float64(now.Sub(ackAt))/1e6)
					cl.writeVis = append(cl.writeVis, float64(now.Sub(sent))/1e6)
					break
				}
				if time.Now().After(waitUntil) {
					cl.alog.failed = append(cl.alog.failed, fmt.Errorf("epoch %d not visible on the replica after 10s", epoch))
					break
				}
			}
			// (3) read-your-writes on the replica, (4) one plain search.
			q := nextQuery()
			r, err := c.search(ctx, replica, q, epoch)
			cl.slog.record(q, r, err, len(acked))
			cl.rywReads++
			if r.forward {
				cl.rywFwd++
			}
			q = nextQuery()
			r, err = c.search(ctx, replica, q, 0)
			cl.slog.record(q, r, err, len(acked))
		}
		return cl, time.Since(start)
	}

	if warm, _ := phase(cfg.warmup); len(warm.alog.failed)+len(warm.slog.failed) > 0 {
		return fmt.Errorf("warm-up: %w", errors.Join(append(warm.alog.failed, warm.slog.failed...)...))
	}
	var cl *cycleLog
	var elapsed time.Duration
	win, err := measure(ctx, ctl, servers, func() { cl, elapsed = phase(cfg.window) })
	if err != nil {
		return err
	}

	applies := len(cl.alog.explicitMS)
	res.attempted = len(cl.slog.rttMS) + len(cl.slog.failed) + applies + len(cl.alog.failed)
	for _, err := range append(cl.alog.failed, cl.slog.failed...) {
		res.fail(err)
	}
	searchMetrics(res, &cl.slog, elapsed)
	applyMetrics(res, &cl.alog, elapsed)
	res.e2e.set("ops_per_s", float64(cl.alog.changes)/elapsed.Seconds(), cl.alog.changes)
	res.e2e.set("op_p50_ms", percentile(cl.writeVis, 0.50), len(cl.writeVis))
	if err := windowMetrics(res, servers, win, len(cl.slog.rttMS)+applies, res.attempted+cl.polls, cl.refMS); err != nil {
		return err
	}
	res.layer.set("replic.visible_p50_ms", percentile(cl.visibleMS, 0.50), len(cl.visibleMS))
	if cl.rywReads > 0 {
		res.layer.set("replic.forward_ratio", float64(cl.rywFwd)/float64(cl.rywReads), cl.rywReads)
	}
	if n := len(cl.visibleMS); n > 0 {
		res.layer.set("replic.polls_per_visible", float64(cl.polls)/float64(n), n)
	}
	if b, a := win.before.stats[1].Replication, win.after.stats[1].Replication; a != nil && b != nil && len(a.PerShard) > 0 && len(b.PerShard) > 0 {
		secs := win.after.at.Sub(win.before.at).Seconds()
		res.layer.set("replic.records_applied_per_s", float64(a.PerShard[0].RecordsApplied-b.PerShard[0].RecordsApplied)/secs, applies)
		res.layer.set("replic.reconnects", float64(a.PerShard[0].Reconnects-b.PerShard[0].Reconnects), 1)
	}

	// Each kept read was taken right after its cycle's apply became
	// visible, with no other apply in flight: the replay checks it at
	// exactly that state.
	if err := verifySamples(ctx, ref, res, acked, cl.slog.samples); err != nil {
		return err
	}
	// Converged, leader and replica must both answer as the reference.
	probes := queryPool(ref.corpus, subSeed(cfg.seed, 2), probeQueries)
	probe(ctx, ctl, leader, ref, res, probes, "leader at the converged epoch")
	probe(ctx, ctl, replica, ref, res, probes, "replica at the converged epoch")
	return nil
}
