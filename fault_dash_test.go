package dash

// Engine-level degraded-serving tests: the full healthy -> degraded ->
// recovered cycle through the public Open surface with an injected
// faulty filesystem, and a -race stress of concurrent searchers against
// a writer while the disk flaps broken/healthy. The contracts under
// test are the ISSUE's invariants: reads never fail on durability,
// acknowledged applies are never lost, and degraded mode fails writes
// fast with the typed error.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/relation"
)

// fastFaultRetry keeps degradation and probing inside test timescales.
func fastFaultRetry() DurabilityRetryPolicy {
	return DurabilityRetryPolicy{
		MaxRetries:       1,
		Backoff:          time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		FailureThreshold: 2,
		ProbeInterval:    10 * time.Millisecond,
		MaxProbeInterval: 25 * time.Millisecond,
	}
}

// waitHealthy polls the handle's durability state until it reports
// healthy or the deadline passes.
func waitHealthy(t *testing.T, h *ServingEngine, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for h.DurabilityState() != DurabilityHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("handle did not recover within %v", within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedServingFullCycle is the acceptance scenario end to end:
// healthy applies -> disk breaks -> transient retries exhaust and the
// handle degrades (searches keep answering, writes fail fast with
// ErrDurabilityDegraded) -> the disk heals -> the prober recovers the
// store with a fresh checkpoint -> writes work again -> a cold restart
// proves every acknowledged apply survived and no refused apply leaked.
func TestDegradedServingFullCycle(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	h, err := Open(context.Background(), build(), app,
		WithDataDir(dir), WithDurableFS(inj), WithDurabilityRetry(fastFaultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	health := h.(*ServingEngine)
	// A twin that never persists applies exactly the acknowledged deltas:
	// the oracle for what the recovered handle must hold.
	twin, err := Open(context.Background(), build(), app)
	if err != nil {
		t.Fatal(err)
	}
	ack := func(d Delta) {
		t.Helper()
		if _, err := twin.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}

	deltas := durableDeltas()
	for _, d := range deltas[:2] {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		ack(d)
	}
	if health.DurabilityState() != DurabilityHealthy {
		t.Fatalf("state %s after healthy applies", health.DurabilityState())
	}
	baseline := searchAll(t, h)

	// Disk breaks: the next applies retry, fail, and trip degraded mode.
	inj.Break(nil)
	var lastErr error
	for i := 0; health.DurabilityState() != DurabilityDegraded; i++ {
		if _, lastErr = h.Apply(context.Background(), deltas[2]); lastErr == nil {
			t.Fatal("apply succeeded on a broken disk")
		}
		if i > 10 {
			t.Fatalf("no degradation after %d failed applies (last: %v)", i, lastErr)
		}
	}

	// Degraded contract: reads serve identically, writes fail fast typed.
	if got := searchAll(t, h); !reflect.DeepEqual(got, baseline) {
		t.Error("degraded searches diverged from the pre-fault baseline")
	}
	if _, err := h.Apply(context.Background(), deltas[2]); !errors.Is(err, ErrDurabilityDegraded) {
		t.Fatalf("degraded apply err = %v, want ErrDurabilityDegraded", err)
	}
	if _, err := h.ApplyBatch(context.Background(), deltas[2:3]); !errors.Is(err, ErrDurabilityDegraded) {
		t.Fatalf("degraded batch err = %v, want ErrDurabilityDegraded", err)
	}
	st := h.Stats()
	if st.Durability == nil || st.Durability.State != string(DurabilityDegraded) {
		t.Fatalf("EngineStats durability block %+v, want degraded", st.Durability)
	}
	if st.Durability.Degradations != 1 || st.Durability.LastFault == "" {
		t.Errorf("degraded counters %+v", st.Durability)
	}

	// Disk heals: the prober restores service without a restart.
	inj.Heal()
	waitHealthy(t, health, 5*time.Second)
	st = h.Stats()
	if st.Durability.Recoveries != 1 || st.Durability.Probes == 0 {
		t.Errorf("recovery counters %+v", st.Durability)
	}
	for _, d := range deltas[2:] {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatalf("apply after recovery: %v", err)
		}
		ack(d)
	}
	want := searchAll(t, h)
	wantDumps := dumpsOf(t, h)
	if twinDumps := dumpsOf(t, twin); !reflect.DeepEqual(wantDumps, twinDumps) {
		t.Error("recovered handle diverged from the acknowledged-applies twin")
	}
	if err := h.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart on the plain filesystem: everything acknowledged is
	// there, nothing refused leaked in.
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got := searchAll(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("restarted handle answers differently")
	}
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, wantDumps) {
		t.Error("restarted canonical state diverged")
	}
}

// TestDurableDiskFlapStress races 16 searchers against a writer while
// the disk flaps broken/healthy (run with -race). Searches must never
// fail — degraded serving is still serving — and after the dust
// settles, a cold restart must hold every acknowledged write.
func TestDurableDiskFlapStress(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	h, err := Open(context.Background(), build(), app,
		WithDataDir(dir), WithDurableFS(inj), WithDurabilityRetry(fastFaultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	health := h.(*ServingEngine)

	// Disk flapper: healthy -> broken -> healthy, several cycles.
	flaps := 6
	if testing.Short() {
		flaps = 2
	}
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; i < flaps; i++ {
			inj.Break(nil)
			time.Sleep(15 * time.Millisecond)
			inj.Heal()
			time.Sleep(15 * time.Millisecond)
		}
	}()

	// Writer: each delta retries until acknowledged, so the acked set is
	// exactly 0..writes-1 regardless of how the flapping interleaves.
	const writes = 30
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < writes; i++ {
			d := Delta{Changes: []FragmentChange{{
				Op: OpInsertFragment, ID: FragmentID{relation.String("Stress"), relation.Int(int64(i))},
				TermCounts: map[string]int64{fmt.Sprintf("flap%d", i): 2}, TotalTerms: 2,
			}}}
			// Any error is retryable while the disk flaps: injected faults,
			// the typed degraded error, or the brief poisoned-journal window
			// between a failed repair and the degradation that follows it.
			deadline := time.Now().Add(30 * time.Second)
			for {
				_, err := h.Apply(context.Background(), d)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("write %d: never acknowledged: %v", i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// 16 searchers: every search must succeed, whatever the disk does.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 16; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			kws := [][]string{{"burger"}, {"coffee"}, {"flap1"}, {"flap5", "burger"}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := h.Search(context.Background(), Request{
					Keywords: kws[(r+i)%len(kws)], K: 3, SizeThreshold: 25,
				})
				if err != nil {
					t.Errorf("reader %d: search failed: %v", r, err)
					return
				}
			}
		}(r)
	}

	writer.Wait()
	chaos.Wait()
	close(stop)
	readers.Wait()

	inj.Heal()
	waitHealthy(t, health, 5*time.Second)
	want := dumpsOf(t, h)
	if err := h.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("restart lost acknowledged writes")
	}
	// Spot-check through the search path too: every acknowledged fragment
	// answers its unique term.
	for i := 0; i < writes; i++ {
		rs, err := h2.Search(context.Background(), Request{
			Keywords: []string{fmt.Sprintf("flap%d", i)}, K: 1, SizeThreshold: 25,
		})
		if err != nil {
			t.Fatalf("post-restart search %d: %v", i, err)
		}
		if len(rs) == 0 {
			t.Errorf("acknowledged write %d missing after restart", i)
		}
	}
}
