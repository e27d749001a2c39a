// Command dashload is the repo's end-to-end and per-layer serving
// benchmark. It builds cmd/dashserve, boots real server processes, drives
// them over loopback HTTP with four closed-loop workloads whose every
// input is generated from a seed, checks the answers against an
// in-process reference, and prints every metric by name with its unit and
// sample count. bench/README.md explains the workloads, the metrics and
// why they were chosen; BENCHMARK.json at the repo root declares them.
//
//	go run ./cmd/dashload -seed 1                      # all four workloads
//	go run ./cmd/dashload -workload write_durable      # one
//	go run ./cmd/dashload -workload search_uncached -trace 1   # + layer trace
//	go run ./cmd/dashload -aa 5                        # A/A noise check
//	go run ./cmd/dashload -sweep                       # open-loop rate sweep
//
// Run it from the repo root. The last line of a single-workload run is
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Any failed or wrong operation makes the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dashload:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run finished but some operation failed
// or answered wrongly.
var errIncorrect = errors.New("correctness failure: see the problems listed above")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dashload", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (search_uncached | search_zipf_hot | write_durable | replica_ryw); empty runs all four")
	seed := fs.Int64("seed", 1, "seeds every generated input")
	seconds := fs.Int("seconds", 15, "measurement window per workload in seconds, after the warm-up")
	trace := fs.Int("trace", 0, "1 adds the in-process layer trace and reports the per-layer metrics")
	out := fs.String("out", "", "directory for the traced run's span files (default: a fresh temp dir, path printed)")
	aa := fs.Int("aa", 0, "run two interleaved sets of K runs of every workload and print the A/A table")
	sweep := fs.Bool("sweep", false, "run the open-loop rate sweep on search_uncached and print BENCH_serve.json")
	serveBinFlag := fs.String("serve-bin", "", "where to build dashserve (default: in the run's temp dir); an up-to-date binary there is reused")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if *workload != "" && !knownWorkload(*workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tmp, err := os.MkdirTemp("", "dashload-")
	if err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(tmp); err != nil {
			fmt.Fprintln(os.Stderr, "dashload: remove temp dir:", err)
		}
	}()
	serveBin := *serveBinFlag
	if serveBin == "" {
		serveBin = filepath.Join(tmp, "dashserve")
	}
	if serveBin, err = filepath.Abs(serveBin); err != nil {
		return err
	}
	if b, err := exec.CommandContext(ctx, "go", "build", "-o", serveBin, "./cmd/dashserve").CombinedOutput(); err != nil {
		return fmt.Errorf("build ./cmd/dashserve (run dashload from the repo root): %v\n%s", err, b)
	}

	cfg := runConfig{
		serveBin: serveBin,
		tmpDir:   tmp,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		warmup:   2 * time.Second,
		trace:    *trace == 1,
		spans:    *out,
	}
	if cfg.trace {
		// The traced run splits its time between a shorter HTTP window
		// (for the window counters) and the in-process pass.
		cfg.window /= 2
	}
	switch {
	case *aa > 0:
		return runAA(ctx, cfg, *aa, stdout)
	case *sweep:
		return runSweep(ctx, cfg, stdout)
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	incorrect := false
	for i, name := range names {
		wcfg := cfg
		wcfg.tmpDir = filepath.Join(tmp, name)
		res, err := runWorkload(ctx, wcfg, name)
		if err != nil {
			return err
		}
		if i == 0 {
			res.env.print(stdout)
		}
		res.print(stdout, cfg.trace)
		if err := res.printJSON(stdout, cfg.trace); err != nil {
			return err
		}
		incorrect = incorrect || res.failed > 0
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// print writes the human-readable report: every metric that applies to
// the workload, by name, with unit and sample count.
func (r *runResult) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "\nworkload %s: %d operations attempted, %d failed, ok_ratio %.6f\n",
		r.workload, r.attempted, r.failed, okRatio(r.attempted, r.failed))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	fmt.Fprintf(w, "  end-to-end (tracing off; timings at nominal machine speed: window factor %.3f, set-up factor %.3f)\n",
		r.layer["loadgen.speed_factor"].Value, r.layer["loadgen.cal_cpu_ms"].Value/nominalCalMS)
	for _, d := range endToEnd {
		if s, ok := r.e2e[d.Name]; ok {
			fmt.Fprintf(w, "    %-34s %14.4f %-6s n=%d\n", d.Name, s.Value, d.Unit, s.N)
		}
	}
	if trace {
		fmt.Fprintf(w, "  per-layer (window counters and in-process trace)\n")
	} else {
		fmt.Fprintf(w, "  per-layer (window counters)\n")
	}
	for _, d := range perLayer {
		if s, ok := r.layer[d.Name]; ok {
			fmt.Fprintf(w, "    %-34s %14.4f %-6s n=%d\n", d.Name, s.Value, d.Unit, s.N)
		}
	}
	if gen, srv := r.layer["loadgen.cpu_ms_per_request"], r.layer["loadgen.raw_cpu_ms_per_op"]; gen.Value >= srv.Value && srv.Value > 0 {
		fmt.Fprintf(w, "  NOTE the generator used as much CPU per request as the servers per operation (%.4f ms vs %.4f ms): it, not the server, may bound this workload\n",
			gen.Value, srv.Value)
	}
	if r.spansPath != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.spansPath)
	}
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line: every end-to-end metric with tracing
// off, every per-layer metric with tracing on (0 where the workload does
// not touch the layer).
func (r *runResult) printJSON(w io.Writer, trace bool) error {
	defs, have := endToEnd, r.e2e
	if trace {
		defs, have = perLayer, r.layer
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: have[d.Name].Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
