package durable

// Property test for the offset-indexed, verbatim tail: over randomized
// store histories — appends, checkpoints with and without the dump/rotation
// race, pruning, a failed append leaving a poisoned extent, close +
// Recover — TailFrom at every cursor returns exactly the acknowledged
// records past it, honours maxBytes, and ships bytes identical to the
// retired decode-and-re-encode path kept here as the reference.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// refTail is the retired tail path, kept only as a test reference: read
// every retained journal whole (the open one capped at its acknowledged
// extent), decode every record, and re-encode the ones past the cursor
// with the record codec until the chunk holds maxBytes.
func refTail(t *testing.T, st *Store, from uint64, maxBytes int) (*TailChunk, error) {
	t.Helper()
	ss := st.shards[0]
	ss.mu.Lock()
	openPath, openSize := ss.j.path, ss.j.size
	ss.mu.Unlock()
	wals, err := listGens(st.fs, ss.dir, walPrefix, walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if from < wals[0].epoch {
		return nil, ErrTailTruncated
	}
	chunk := &TailChunk{Next: from}
	for _, w := range wals {
		b, err := st.fs.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		if w.path == openPath {
			b = b[:openSize]
		}
		scan, err := parseJournal(b, filepath.Base(w.path), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range scan.records {
			if rec.epoch <= chunk.Next {
				continue
			}
			if chunk.full(maxBytes) {
				return chunk, nil
			}
			chunk.Frames = appendRecord(chunk.Frames, rec.epoch, rec.delta)
			chunk.Records++
			chunk.Next = rec.epoch
		}
	}
	return chunk, nil
}

// tailModel drives one randomized store history and holds what the store
// acknowledged.
type tailModel struct {
	t     *testing.T
	rng   *rand.Rand
	dir   string
	st    *Store
	inj   *faultfs.Injector
	track *fragindex.Index
	acked []TailRecord
	live  []int64
	next  int64
}

func (m *tailModel) open() {
	m.t.Helper()
	m.inj = faultfs.NewInjector(faultfs.OS)
	st, err := OpenWith(context.Background(), m.dir, SyncPolicy{}, Options{FS: m.inj, Retry: fastRetry()})
	if err != nil {
		m.t.Fatal(err)
	}
	m.st = st
	st.SetBaseline(func(context.Context, int) (*fragindex.Dump, error) { return m.track.Dump(), nil })
}

func (m *tailModel) delta() crawl.Delta {
	counts := map[string]int64{fmt.Sprintf("w%d", m.rng.Intn(9)): int64(1 + m.rng.Intn(4))}
	if len(m.live) > 0 && m.rng.Intn(3) == 0 {
		k := m.rng.Intn(len(m.live))
		id := fid("p", m.live[k])
		if m.rng.Intn(2) == 0 {
			m.live = append(m.live[:k], m.live[k+1:]...)
			return rmDelta(id)
		}
		return updDelta(id, counts, 9)
	}
	m.next++
	m.live = append(m.live, m.next)
	return insDelta(fid("p", m.next), counts, 9)
}

func (m *tailModel) appendOne() {
	m.t.Helper()
	d := m.delta()
	e := applyTracked(m.t, m.track, d)
	if err := m.st.Append(context.Background(), 0, d, e); err != nil {
		m.t.Fatal(err)
	}
	m.acked = append(m.acked, TailRecord{Epoch: e, Delta: d})
}

func (m *tailModel) checkpoint(d *fragindex.Dump) {
	m.t.Helper()
	if err := m.st.Checkpoint(context.Background(), 0, d); err != nil {
		m.t.Fatal(err)
	}
}

// poison tears the next journal write and fails its repair truncate, so
// the failed append leaves unacknowledged bytes past the extent.
func (m *tailModel) poison() {
	m.t.Helper()
	m.inj.SetRules(
		faultfs.Rule{Op: faultfs.OpWrite, Path: walSuffix, Torn: true, Count: 1},
		faultfs.Rule{Op: faultfs.OpTruncate, Path: walSuffix, Count: 1},
	)
	bad := insDelta(fid("unacked", m.next+1), map[string]int64{"unacked": 1}, 1)
	if err := m.st.Append(context.Background(), 0, bad, m.track.Dump().Epoch+1); err == nil {
		m.t.Fatal("torn append reported success")
	}
	if !m.st.shards[0].j.poisoned {
		m.t.Fatal("journal not poisoned")
	}
}

// heal walks the poisoned store into degraded mode and waits for the
// prober to seal the journal and rotate behind a baseline checkpoint.
func (m *tailModel) heal() {
	m.t.Helper()
	if err := m.st.Append(context.Background(), 0, rmDelta(fid("unacked", 0)), m.track.Dump().Epoch+1); err == nil {
		m.t.Fatal("poisoned journal accepted an append")
	}
	waitForState(m.t, m.st, StateHealthy, 5*time.Second)
}

func (m *tailModel) reopen() {
	m.t.Helper()
	if err := m.st.Close(); err != nil {
		m.t.Fatal(err)
	}
	m.open()
	idxs, _, err := m.st.Recover(context.Background())
	if err != nil {
		m.t.Fatal(err)
	}
	if !reflect.DeepEqual(idxs[0].Dump(), m.track.Dump()) {
		m.t.Fatal("recovered state diverged from the acknowledged applies")
	}
}

// check tails from every interesting cursor with several budgets and
// holds each chunk to the model and to the reference path.
func (m *tailModel) check(step string) {
	m.t.Helper()
	durable, _ := m.st.DurableEpoch(0)
	cursors := []uint64{0, durable}
	for _, r := range m.acked {
		cursors = append(cursors, r.Epoch-1, r.Epoch)
	}
	for _, from := range cursors {
		for _, budget := range []int{0, 1, 200, 1 + m.rng.Intn(2000)} {
			got, gerr := m.st.TailFrom(context.Background(), 0, from, budget)
			refBudget := budget
			if refBudget == 0 {
				refBudget = defaultTailBytes
			}
			want, werr := refTail(m.t, m.st, from, refBudget)
			if werr != nil {
				if !errors.Is(gerr, ErrTailTruncated) {
					m.t.Fatalf("%s: from %d: err %v, reference truncated", step, from, gerr)
				}
				continue
			}
			if gerr != nil {
				m.t.Fatalf("%s: from %d budget %d: %v", step, from, budget, gerr)
			}
			if !bytes.Equal(got.Frames, want.Frames) || got.Records != want.Records || got.Next != want.Next {
				m.t.Fatalf("%s: from %d budget %d: chunk (%d records, next %d, %d B) differs from the reference (%d, %d, %d B)",
					step, from, budget, got.Records, got.Next, len(got.Frames), want.Records, want.Next, len(want.Frames))
			}
			if got.DurableEpoch != durable {
				m.t.Fatalf("%s: durable epoch %d, want %d", step, got.DurableEpoch, durable)
			}
			recs, err := ParseTailFrames(got.Frames)
			if err != nil {
				m.t.Fatalf("%s: from %d: shipped frames do not parse: %v", step, from, err)
			}
			var past []TailRecord
			for _, r := range m.acked {
				if r.Epoch > from {
					past = append(past, r)
				}
			}
			if len(past) > 0 && len(recs) == 0 {
				m.t.Fatalf("%s: from %d: %d acknowledged records past the cursor, none shipped", step, from, len(past))
			}
			if !reflect.DeepEqual(recs, past[:len(recs)]) {
				m.t.Fatalf("%s: from %d: shipped records are not the acknowledged ones past the cursor", step, from)
			}
			if budget > 0 && len(recs) < len(past) && len(got.Frames) < budget {
				m.t.Fatalf("%s: from %d: chunk stopped at %d B under a %d B budget", step, from, len(got.Frames), budget)
			}
		}
	}
}

func TestTailFromMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &tailModel{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
			idx := smallIndex(t, 4)
			m.track = cloneIndex(t, idx)
			m.open()
			defer func() { m.st.Close() }()
			if err := m.st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
				t.Fatal(err)
			}
			poisonAt := 5 + m.rng.Intn(20)
			for step := 0; step < 30; step++ {
				var what string
				switch roll := m.rng.Intn(10); {
				case step == poisonAt:
					what = "poison"
					m.poison()
					m.check(what)
					m.heal()
				case roll < 4:
					what = "append"
					for n := 1 + m.rng.Intn(3); n > 0; n-- {
						m.appendOne()
					}
				case roll < 6:
					what = "checkpoint"
					m.checkpoint(m.track.Dump())
				case roll < 8:
					what = "racing checkpoint"
					d := m.track.Dump()
					for n := 1 + m.rng.Intn(2); n > 0; n-- {
						m.appendOne()
					}
					m.checkpoint(d)
				default:
					what = "reopen"
					m.reopen()
				}
				m.check(fmt.Sprintf("step %d (%s)", step, what))
			}
		})
	}
}
