package main

// env.go records where a run happened: the measurement hygiene every
// output carries so two numbers are only ever compared knowingly.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

type envInfo struct {
	nproc, gomaxprocs  int
	goVersion          string
	cpuModel, kernel   string
	fsType             string
	fragments          int
	keywords           int
	seed               int64
	windowS, warmupS   float64
	boots, connections int
}

func collectEnv(cfg runConfig, ref *reference) envInfo {
	boots := timedBoots
	if cfg.trace {
		boots = 1
	}
	return envInfo{
		nproc:       runtime.NumCPU(),
		gomaxprocs:  runtime.GOMAXPROCS(0),
		goVersion:   runtime.Version(),
		cpuModel:    cpuModel(),
		kernel:      firstLine("/proc/sys/kernel/osrelease"),
		fsType:      fsTypeOf(cfg.tmpDir),
		fragments:   ref.fragments,
		keywords:    ref.keywords,
		seed:        cfg.seed,
		windowS:     cfg.window.Seconds(),
		warmupS:     cfg.warmup.Seconds(),
		boots:       boots,
		connections: clientConns,
	}
}

func (e envInfo) print(w io.Writer) {
	fmt.Fprintf(w, "environment\n")
	fmt.Fprintf(w, "  nproc %d, GOMAXPROCS driver %d, servers %s\n", e.nproc, e.gomaxprocs, serverGOMAXPROCS(e.nproc))
	fmt.Fprintf(w, "  %s, cpu %q, kernel %s, data-dir filesystem %s\n", e.goVersion, e.cpuModel, e.kernel, e.fsType)
	fmt.Fprintf(w, "  dataset %s %s seed %d: %d fragments, %d keywords\n", datasetName, datasetQuery, datasetSeed, e.fragments, e.keywords)
	fmt.Fprintf(w, "  seed %d, window %gs after %gs warm-up, %d timed boots, closed loop with %d connections (replica_ryw: 1)\n",
		e.seed, e.windowS, e.warmupS, e.boots, e.connections)
}

// serverGOMAXPROCS says what the child processes run with: they inherit
// the driver's environment and set nothing themselves.
func serverGOMAXPROCS(nproc int) string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v + " (inherited GOMAXPROCS)"
	}
	return fmt.Sprintf("%d (runtime default)", nproc)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsTypeOf(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
