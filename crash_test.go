package dash

// Crash-injection harness for the durable serving path. The parent test
// (TestCrashRecovery) re-executes this test binary as a child process
// running only TestCrashWorkloadChild, with DASH_CRASHPOINT aimed at a
// named fault point inside internal/durable. The child runs a
// deterministic delta workload against a durable handle, appending one
// fsynced byte to an ack file after every acknowledged Apply, until the
// injected fault kills it mid-publish or mid-checkpoint with no Go-level
// cleanup (os.Exit — the kernel file state is identical to kill -9).
//
// The parent then recovers the data directory cold and asserts the
// headline durability property: the recovered state is byte-identical
// (canonical dumps and normalized search results) to an in-memory replica
// that applied exactly the acknowledged prefix of the workload — or that
// prefix plus one, for the window where the journal record is durable but
// the crash landed between the snapshot swap and the ack. Nothing
// acknowledged may ever be lost; nothing unjournaled may ever appear.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/relation"
)

// crashQueries covers every keyword the crash workload touches plus
// corpus-resident and absent terms, so state divergence anywhere in the
// index surfaces as a result mismatch.
var crashQueries = [][]string{
	{"crash"}, {"burger"}, {"volatile"}, {"coffee"},
	{"kw0"}, {"kw1"}, {"kw2"}, {"kw3"}, {"kw4"},
	{"crash", "burger"}, {"zzz-absent"},
}

// crashDeltaAt returns the i-th delta of the deterministic crash workload.
// The sequence is valid from any prefix: each synthetic fragment is
// inserted, updated, and removed within its own 4-step cycle, interleaved
// with updates to a corpus fragment, so the parent can reconstruct the
// exact state after any number of applies.
func crashDeltaAt(i int) Delta {
	phase, n := i%4, i/4
	id := FragmentID{relation.String(fmt.Sprintf("Crash%d", n%3)), relation.Int(int64(100 + n))}
	ch := FragmentChange{ID: id}
	switch phase {
	case 0:
		ch.Op = OpInsertFragment
		ch.TermCounts = map[string]int64{"crash": 1, fmt.Sprintf("kw%d", n%5): int64(1 + n%3)}
		ch.TotalTerms = int64(2 + n%3)
	case 1:
		ch.Op = OpUpdateFragment
		ch.TermCounts = map[string]int64{"crash": 2, fmt.Sprintf("kw%d", (n+1)%5): 1}
		ch.TotalTerms = 3
	case 2:
		ch.Op = OpUpdateFragment
		ch.ID = FragmentID{relation.String("American"), relation.Int(10)}
		ch.TermCounts = map[string]int64{"burger": int64(2 + n%4), "volatile": 1}
		ch.TotalTerms = int64(3 + n%4)
	case 3:
		ch.Op = OpRemoveFragment
	}
	return Delta{Changes: []FragmentChange{ch}}
}

// crashCheckpointEvery is the child's checkpoint cadence (after applies
// 4, 9, 14, ...), chosen so short workloads still rotate the journal.
const crashCheckpointEvery = 5

// TestCrashWorkloadChild is the child half of the harness. It only runs
// when TestCrashRecovery spawns it with the DASH_CRASH_* environment; a
// plain `go test` skips it.
func TestCrashWorkloadChild(t *testing.T) {
	dir := os.Getenv("DASH_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-harness child; spawned by TestCrashRecovery")
	}
	shards, _ := strconv.Atoi(os.Getenv("DASH_CRASH_SHARDS"))
	n, _ := strconv.Atoi(os.Getenv("DASH_CRASH_DELTAS"))
	if ms, _ := strconv.Atoi(os.Getenv("DASH_CRASH_AFTER_MS")); ms > 0 {
		go func() {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			os.Exit(137)
		}()
	}
	_, app, build := fooddbIndex(t)
	opts := []Option{WithShards(shards), WithDataDir(dir)}
	// DASH_CRASH_FAULTS routes the child's durable writes through a fault
	// injector with the given schedule (faultfs.ParseSchedule syntax) and a
	// fast retry/probe policy, so the parent can crash the child while it
	// is degraded or mid prober-driven recovery.
	var inj *faultfs.Injector
	if spec := os.Getenv("DASH_CRASH_FAULTS"); spec != "" {
		rules, err := faultfs.ParseSchedule(spec)
		if err != nil {
			t.Fatalf("child fault schedule: %v", err)
		}
		inj = faultfs.NewInjector(faultfs.OS)
		inj.SetRules(rules...)
		opts = append(opts, WithDurableFS(inj), WithDurabilityRetry(DurabilityRetryPolicy{
			MaxRetries:       1,
			Backoff:          time.Millisecond,
			MaxBackoff:       2 * time.Millisecond,
			FailureThreshold: 2,
			ProbeInterval:    25 * time.Millisecond,
			MaxProbeInterval: 50 * time.Millisecond,
		}))
	}
	exitOnDegraded := os.Getenv("DASH_CRASH_EXIT_ON_DEGRADED") == "1"
	h, err := Open(context.Background(), build(), app, opts...)
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	ack, err := os.OpenFile(os.Getenv("DASH_CRASH_ACK"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child ack file: %v", err)
	}
	for i := 0; i < n; i++ {
		// Under a fault schedule the same delta retries until acknowledged,
		// so the acknowledged applies are always exactly deltas 0..acked-1;
		// failed attempts publish nothing (the builder rolls them back).
		for {
			_, err := h.Apply(context.Background(), crashDeltaAt(i))
			if err == nil {
				break
			}
			if inj == nil {
				t.Fatalf("child apply %d: %v", i, err)
			}
			if exitOnDegraded && errors.Is(err, ErrDurabilityDegraded) {
				os.Exit(137) // crash while degraded, no Go-level cleanup
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The ack is the parent's ground truth for "this apply was
		// acknowledged": one fsynced byte per successful Apply.
		if _, err := ack.Write([]byte{1}); err != nil {
			t.Fatalf("child ack %d: %v", i, err)
		}
		if err := ack.Sync(); err != nil {
			t.Fatalf("child ack sync %d: %v", i, err)
		}
		if i%crashCheckpointEvery == crashCheckpointEvery-1 {
			if err := h.(*ServingEngine).Checkpoint(context.Background()); err != nil && inj == nil {
				t.Fatalf("child checkpoint after %d: %v", i, err)
			}
		}
	}
	if err := h.(io.Closer).Close(); err != nil {
		t.Fatalf("child close: %v", err)
	}
}

// crashFault is one matrix entry: a crashpoint and/or timer kill, plus an
// optional disk-fault schedule driving the durability state machine.
type crashFault struct {
	name    string
	point   string // DASH_CRASHPOINT spec, "" for none
	afterMS int    // timer kill, 0 for none
	// faults is a faultfs schedule for the child's disk, "" for none.
	faults string
	// exitOnDegraded makes the child crash (exit 137) the moment an apply
	// fails fast with ErrDurabilityDegraded.
	exitOnDegraded bool
	// mustCrash asserts the child died at the injected fault rather than
	// finishing the workload.
	mustCrash bool
	// wantAcked, when positive, pins the exact acknowledged count the
	// schedule arithmetic predicts.
	wantAcked int
}

// spawnCrashChild re-executes the test binary running only the child
// workload, returning the acknowledged-apply count and whether the child
// died at the injected fault (any other failure is fatal).
func spawnCrashChild(t *testing.T, dir, ackPath string, shards, deltas int, f crashFault) (acked int, crashed bool) {
	t.Helper()
	exitEnv := "0"
	if f.exitOnDegraded {
		exitEnv = "1"
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashWorkloadChild$")
	cmd.Env = append(os.Environ(),
		"DASH_CRASH_DIR="+dir,
		"DASH_CRASH_ACK="+ackPath,
		"DASH_CRASH_SHARDS="+strconv.Itoa(shards),
		"DASH_CRASH_DELTAS="+strconv.Itoa(deltas),
		"DASH_CRASHPOINT="+f.point,
		"DASH_CRASH_AFTER_MS="+strconv.Itoa(f.afterMS),
		"DASH_CRASH_FAULTS="+f.faults,
		"DASH_CRASH_EXIT_ON_DEGRADED="+exitEnv,
	)
	out, err := cmd.CombinedOutput()
	switch ee, ok := err.(*exec.ExitError); {
	case err == nil:
		crashed = false
	case ok && ee.ExitCode() == 137:
		crashed = true
	default:
		t.Fatalf("child failed unexpectedly: %v\n%s", err, out)
	}
	b, err := os.ReadFile(ackPath)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(b), crashed
}

// crashReplicaState applies the first k workload deltas to a fresh
// in-memory topology and returns its canonical dumps plus normalized
// search results — the oracle the recovered directory must match.
func crashReplicaState(t *testing.T, app *Application, build func() *Index, shards, k int) ([]interface{}, [][]Result) {
	t.Helper()
	h, err := Open(context.Background(), build(), app, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := h.Apply(context.Background(), crashDeltaAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	dumps := dumpsOf(t, h)
	anon := make([]interface{}, len(dumps))
	for i, d := range dumps {
		anon[i] = d
	}
	return anon, searchAll(t, h, crashQueries...)
}

// TestCrashRecovery drives the full crash matrix: both topologies × every
// injected fault point (journal append around its fsync, snapshot section
// writes and the atomic rename — which also exercises crashes during
// initial seeding — checkpoint rotation and pruning), plus timer-based
// kills at arbitrary workload positions and a no-fault control run.
func TestCrashRecovery(t *testing.T) {
	_, app, build := fooddbIndex(t)
	const deltas = 12

	for _, shards := range []int{1, 3} {
		faults := []crashFault{
			{name: "none"},
			{name: "journal-before-sync-first", point: "journal.append.before-sync:1"},
			{name: "journal-after-sync-first", point: "journal.append.after-sync:1"},
			{name: "journal-before-sync-mid", point: "journal.append.before-sync:7"},
			{name: "journal-after-sync-late", point: "journal.append.after-sync:11"},
			// Hit 1 of the snapshot points fires while Init seeds the first
			// generation: the crash must leave the directory uncommitted.
			{name: "seed-snapshot-section", point: "snapshot.section:1"},
			{name: "seed-before-rename", point: "snapshot.before-rename:1"},
			{name: "seed-after-rename", point: "snapshot.after-rename:1"},
			// Init renames one snapshot per shard, so hit shards+1 is the
			// first checkpoint's rename.
			{name: "checkpoint-before-rename", point: fmt.Sprintf("snapshot.before-rename:%d", shards+1)},
			{name: "checkpoint-after-snapshot", point: "checkpoint.after-snapshot:1"},
			{name: "checkpoint-before-prune", point: "checkpoint.before-prune:1"},
			{name: "timer-kill-early", afterMS: 3},
			{name: "timer-kill-late", afterMS: 20},
			// Degraded-mode cases. Init fsyncs one journal header per shard
			// and each apply fsyncs one journal record, so a wal-sync rule
			// starting after shards+4 matches lets exactly 4 applies ack.
			// MaxRetries=1 means a failed apply burns 2 faults and
			// FailureThreshold=2 degrades after 2 failed applies; the x6
			// window additionally feeds the first two recovery attempts'
			// journal-header fsyncs before letting the third succeed.
			{name: "fault-degraded-crash",
				faults:         fmt.Sprintf("sync~%s@%d", ".wal", shards+4),
				exitOnDegraded: true, mustCrash: true, wantAcked: 4},
			{name: "fault-recover-before-checkpoint",
				faults:    fmt.Sprintf("sync~%s@%dx6", ".wal", shards+4),
				point:     "degraded.recover.before-checkpoint:1",
				mustCrash: true, wantAcked: 4},
			{name: "fault-recover-after-checkpoint",
				faults:    fmt.Sprintf("sync~%s@%dx6", ".wal", shards+4),
				point:     "degraded.recover.after-checkpoint:1",
				mustCrash: true, wantAcked: 4},
		}
		if testing.Short() {
			faults = faults[:8]
		}
		for _, f := range faults {
			f := f
			t.Run(fmt.Sprintf("shards=%d/%s", shards, f.name), func(t *testing.T) {
				root := crashArtifactRoot(t)
				dir := filepath.Join(root, "data")
				ackPath := filepath.Join(root, "ack")
				acked, crashed := spawnCrashChild(t, dir, ackPath, shards, deltas, f)
				if f.point == "" && f.afterMS == 0 && f.faults == "" {
					if crashed {
						t.Fatal("control child crashed without an injected fault")
					}
					if acked != deltas {
						t.Fatalf("control child acknowledged %d/%d applies", acked, deltas)
					}
				}
				if f.mustCrash && !crashed {
					t.Fatalf("child finished the workload past %q without crashing", f.name)
				}
				if f.wantAcked > 0 && acked != f.wantAcked {
					t.Fatalf("child acknowledged %d applies, schedule predicts %d", acked, f.wantAcked)
				}

				if !IsInitialized(dir) {
					// The crash landed before the MANIFEST committed the
					// directory. Nothing may have been acknowledged, and
					// re-seeding over the debris must work.
					if acked != 0 {
						t.Fatalf("%d applies acknowledged against an uncommitted data dir", acked)
					}
					h, err := Open(context.Background(), build(), app, WithShards(shards), WithDataDir(dir))
					if err != nil {
						t.Fatalf("re-seed after init crash: %v", err)
					}
					defer h.(io.Closer).Close()
					if _, err := h.Apply(context.Background(), crashDeltaAt(0)); err != nil {
						t.Fatalf("apply after re-seed: %v", err)
					}
					return
				}

				rec, err := Open(context.Background(), nil, app, WithDataDir(dir))
				if err != nil {
					t.Fatalf("recovery after %q at ack %d: %v", f.name, acked, err)
				}
				defer rec.(io.Closer).Close()
				gotDumps := dumpsOf(t, rec)
				gotAnon := make([]interface{}, len(gotDumps))
				for i, d := range gotDumps {
					gotAnon[i] = d
				}
				gotResults := searchAll(t, rec, crashQueries...)

				wantDumps, wantResults := crashReplicaState(t, app, build, shards, acked)
				if reflect.DeepEqual(gotAnon, wantDumps) && reflect.DeepEqual(gotResults, wantResults) {
					return
				}
				// One apply of slack: the journal record can be durable while
				// the crash preempted the ack (or even the swap — replay
				// re-publishes it). Never more than one.
				if acked < deltas {
					nextDumps, nextResults := crashReplicaState(t, app, build, shards, acked+1)
					if reflect.DeepEqual(gotAnon, nextDumps) && reflect.DeepEqual(gotResults, nextResults) {
						return
					}
				}
				t.Fatalf("recovered state after %q matches neither ack=%d nor ack=%d", f.name, acked, acked+1)
			})
		}
	}
}

// crashArtifactRoot places each run's data dir under
// DASH_CRASH_ARTIFACT_DIR when set (CI uploads it on failure for
// post-mortem) and under the test's temp dir otherwise.
func crashArtifactRoot(t *testing.T) string {
	t.Helper()
	base := os.Getenv("DASH_CRASH_ARTIFACT_DIR")
	if base == "" {
		return t.TempDir()
	}
	sub := strings.NewReplacer("/", "_", "=", "-").Replace(t.Name())
	root := filepath.Join(base, sub)
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	return root
}
