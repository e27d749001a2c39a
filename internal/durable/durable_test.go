package durable

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
)

func testSpec() fragindex.Spec {
	return fragindex.Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
}

func fid(g string, v int64) fragment.ID {
	return fragment.ID{relation.String(g), relation.Int(v)}
}

// smallIndex builds an n-fragment index with overlapping keywords.
func smallIndex(t testing.TB, n int) *fragindex.Index {
	t.Helper()
	idx, err := fragindex.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		counts := map[string]int64{
			"common":                int64(i%3 + 1),
			fmt.Sprintf("w%d", i):   2,
			fmt.Sprintf("g%d", i%4): 1,
		}
		if _, err := idx.InsertFragment(fid(fmt.Sprintf("p%d", i%4), int64(i)), counts, int64(i%3+4)); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

func insDelta(id fragment.ID, counts map[string]int64, total int64) crawl.Delta {
	return crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpInsertFragment, ID: id, TermCounts: counts, TotalTerms: total,
	}}}
}

func updDelta(id fragment.ID, counts map[string]int64, total int64) crawl.Delta {
	return crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpUpdateFragment, ID: id, TermCounts: counts, TotalTerms: total,
	}}}
}

func rmDelta(id fragment.ID) crawl.Delta {
	return crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: id}}}
}

// cloneIndex duplicates an index through its canonical dump — the tracked
// twin the recovery tests compare against.
func cloneIndex(t *testing.T, idx *fragindex.Index) *fragindex.Index {
	t.Helper()
	c, err := fragindex.Restore(idx.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applyTracked folds a delta into a builder the way a live publish would and
// returns the resulting epoch, mirroring what the journal must reproduce.
func applyTracked(t *testing.T, idx *fragindex.Index, d crawl.Delta) uint64 {
	t.Helper()
	if err := applyToBuilder(idx, d); err != nil {
		t.Fatal(err)
	}
	return idx.Freeze().Epoch()
}

// TestDeltaCodecRoundTrip: encode/decode is lossless and deterministic.
func TestDeltaCodecRoundTrip(t *testing.T) {
	del := crawl.Delta{
		SelAttrs: []string{"g", "v"},
		Changes: []crawl.FragmentChange{
			{Op: crawl.OpInsertFragment, ID: fid("a", 1),
				TermCounts: map[string]int64{"x": 3, "y": 1, "a": 9}, TotalTerms: 13},
			{Op: crawl.OpRemoveFragment, ID: fid("b", 2)},
			{Op: crawl.OpUpdateFragment, ID: fid("c", 3),
				TermCounts: map[string]int64{"z": 1}, TotalTerms: 1},
		},
	}
	b1 := appendDelta(nil, del)
	b2 := appendDelta(nil, del)
	if string(b1) != string(b2) {
		t.Error("same delta encoded to different bytes")
	}
	got, err := decodeDelta(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, del) {
		t.Errorf("round trip changed the delta:\nin  %+v\nout %+v", del, got)
	}
	// Every truncation of a valid payload must error, never panic or
	// succeed.
	for i := 0; i < len(b1); i++ {
		if _, err := decodeDelta(b1[:i]); err == nil {
			t.Errorf("truncation at %d decoded successfully", i)
		}
	}
	if _, err := decodeDelta(append(b1, 0)); err == nil {
		t.Error("trailing byte decoded successfully")
	}
	// A total past math.MaxInt32 — a negative one encodes as a uvarint of
	// 2⁶³ or more — is refused, not decoded into a negative count.
	for _, total := range []int64{-5, math.MaxInt32 + 1} {
		bad := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpUpdateFragment, ID: fid("c", 3),
			TermCounts: map[string]int64{"z": 1}, TotalTerms: total}}}
		if _, err := decodeDelta(appendDelta(nil, bad)); err == nil {
			t.Errorf("total %d decoded", total)
		}
	}
	// A removal never reads its total, so one out of range still decodes:
	// the journal holds removals as the caller gave them.
	rm := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: fid("c", 3), TotalTerms: -5}}}
	if got, err := decodeDelta(appendDelta(nil, rm)); err != nil || !reflect.DeepEqual(got.Changes, rm.Changes) {
		t.Errorf("removal with total -5: decoded %+v, %v", got, err)
	}
}

// TestSnapshotRoundTrip: WriteSnapshot → ReadSnapshot reproduces the dump
// exactly, including multi-chunk layouts.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 3, 2*fragsPerChunk + 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n > 100 && testing.Short() {
				t.Skip("large layout in -short")
			}
			d := smallIndex(t, n).Dump()
			d.Epoch = 7
			path := filepath.Join(t.TempDir(), "x.snap")
			if err := WriteSnapshot(context.Background(), path, d); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSnapshot(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Error("snapshot round trip changed the dump")
			}
			if _, err := fragindex.Restore(got); err != nil {
				t.Errorf("restored dump rejected: %v", err)
			}
		})
	}
}

// TestSnapshotCorruptionDetected: flipping any single byte of a snapshot
// file fails verification — nothing decodes silently wrong.
func TestSnapshotCorruptionDetected(t *testing.T) {
	d := smallIndex(t, 12).Dump()
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := WriteSnapshot(context.Background(), path, d); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(context.Background(), path); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
	// Truncations at every prefix fail too.
	for _, cut := range []int{0, 7, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(context.Background(), path); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("truncation at %d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

// TestSnapshotUnsupportedVersion gets its own error, distinct from
// corruption — a newer format must not be "fallback-ed" away from.
func TestSnapshotUnsupportedVersion(t *testing.T) {
	d := smallIndex(t, 2).Dump()
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := WriteSnapshot(context.Background(), path, d); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[8] = 99 // version field
	os.WriteFile(path, b, 0o644)
	_, err := ReadSnapshot(context.Background(), path)
	if err == nil || errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "unsupported format version") {
		t.Errorf("err = %v, want a distinct unsupported-version error", err)
	}
}

// TestJournalAppendReplay: appended records come back in order with their
// epochs and deltas intact.
func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	j, err := createJournal(faultfs.OS, path, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []crawl.Delta{
		insDelta(fid("a", 1), map[string]int64{"x": 1}, 1),
		updDelta(fid("a", 1), map[string]int64{"x": 2, "y": 1}, 3),
		rmDelta(fid("a", 1)),
	}
	for i, d := range deltas {
		if err := j.append(d, 11+uint64(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	for _, allowTorn := range []bool{true, false} {
		scan, err := readJournal(faultfs.OS, path, allowTorn)
		if err != nil {
			t.Fatal(err)
		}
		if scan.baseEpoch != 10 || scan.torn || len(scan.records) != len(deltas) {
			t.Fatalf("scan = base %d torn %v records %d", scan.baseEpoch, scan.torn, len(scan.records))
		}
		for i, rec := range scan.records {
			if rec.epoch != 11+uint64(i) || !reflect.DeepEqual(rec.delta, deltas[i]) {
				t.Errorf("record %d = epoch %d %+v", i, rec.epoch, rec.delta)
			}
		}
	}
}

// TestJournalTornTail: a partial final record is reported torn (and its
// valid prefix preserved) in the newest journal, but is corruption
// mid-chain.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	j, err := createJournal(faultfs.OS, path, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(insDelta(fid("a", 1), map[string]int64{"x": 1}, 1), 1, true); err != nil {
		t.Fatal(err)
	}
	if err := j.append(insDelta(fid("a", 2), map[string]int64{"y": 1}, 1), 2, true); err != nil {
		t.Fatal(err)
	}
	full := j.size
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, 3, recHeaderSize + 2} {
		if err := os.Truncate(path, full-cut); err != nil {
			t.Fatal(err)
		}
		scan, err := readJournal(faultfs.OS, path, true)
		if err != nil {
			t.Fatal(err)
		}
		if !scan.torn || len(scan.records) != 1 || scan.records[0].epoch != 1 {
			t.Errorf("cut %d: torn %v records %d", cut, scan.torn, len(scan.records))
		}
		if _, err := readJournal(faultfs.OS, path, false); !errors.Is(err, ErrCorruptJournal) {
			t.Errorf("cut %d mid-chain: err = %v, want ErrCorruptJournal", cut, err)
		}
	}
	// Torn during creation: a sub-header file is recoverable only as the
	// newest journal.
	if err := os.WriteFile(path, []byte("DASH"), 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := readJournal(faultfs.OS, path, true)
	if err != nil || !scan.torn || scan.validSize != 0 {
		t.Errorf("torn header: scan %+v err %v", scan, err)
	}
	if _, err := readJournal(faultfs.OS, path, false); !errors.Is(err, ErrCorruptJournal) {
		t.Errorf("torn header mid-chain: err = %v", err)
	}
}

// TestJournalMidFileCorruption: a CRC failure with valid data after it is
// corruption regardless of allowTorn — a torn write cannot produce it.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	j, err := createJournal(faultfs.OS, path, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(insDelta(fid("a", 1), map[string]int64{"x": 1}, 1), 1, true); err != nil {
		t.Fatal(err)
	}
	firstEnd := j.size
	if err := j.append(insDelta(fid("a", 2), map[string]int64{"y": 1}, 1), 2, true); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[firstEnd-1] ^= 0xff // inside the first record's payload
	os.WriteFile(path, b, 0o644)
	for _, allowTorn := range []bool{true, false} {
		if _, err := readJournal(faultfs.OS, path, allowTorn); !errors.Is(err, ErrCorruptJournal) {
			t.Errorf("allowTorn=%v: err = %v, want ErrCorruptJournal", allowTorn, err)
		}
	}
}

// openStore opens and, when initialized, recovers a store rooted at dir.
func openStore(t *testing.T, dir string, policy SyncPolicy) (*Store, []*fragindex.Index) {
	t.Helper()
	st, err := Open(context.Background(), dir, policy)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fresh() {
		return st, nil
	}
	idxs, _, err := st.Recover(context.Background())
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return st, idxs
}

// TestStoreInitRecover: a seeded store with journaled appends recovers to
// exactly the tracked state — same canonical dump, same epoch.
func TestStoreInitRecover(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 6)
	track := cloneIndex(t, idx)

	st, _ := openStore(t, dir, SyncPolicy{})
	if !st.Fresh() || st.NumShards() != 0 {
		t.Fatal("new dir not fresh")
	}
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	if !IsInitialized(dir) {
		t.Fatal("Init left no MANIFEST")
	}

	deltas := []crawl.Delta{
		insDelta(fid("new", 100), map[string]int64{"fresh": 2}, 2),
		updDelta(fid("p0", 0), map[string]int64{"common": 5}, 5),
		rmDelta(fid("p1", 1)),
		// A removal's total is never read; one out of range still recovers.
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: fid("p2", 2), TotalTerms: -5}}},
	}
	for _, d := range deltas {
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if got := st2.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d", got)
	}
	if !reflect.DeepEqual(st2.Spec(), testSpec()) {
		t.Errorf("recovered spec %+v", st2.Spec())
	}
	want := track.Dump()
	if !reflect.DeepEqual(idxs[0].Dump(), want) {
		t.Error("recovered state diverged from the tracked applies")
	}
	ri := st2.Recovery()
	if len(ri) != 1 || ri[0].ReplayedRecords != len(deltas) || ri[0].Fallback || ri[0].TruncatedTail {
		t.Errorf("recovery info %+v", ri)
	}
	if ri[0].FinalEpoch != want.Epoch {
		t.Errorf("final epoch %d, want %d", ri[0].FinalEpoch, want.Epoch)
	}
	// The reopened journal accepts further appends.
	d := insDelta(fid("later", 1), map[string]int64{"later": 1}, 1)
	if err := st2.Append(context.Background(), 0, d, want.Epoch+5); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCheckpointRotatesAndPrunes: checkpoints create generations,
// retention keeps exactly two snapshots plus covering journals, and
// recovery replays the full retained chain.
func TestStoreCheckpointRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)

	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for k := 0; k < 3; k++ {
			d := insDelta(fid("r", int64(round*10+k)), map[string]int64{fmt.Sprintf("rk%d%d", round, k): 1}, 1)
			epoch := applyTracked(t, track, d)
			if err := st.Append(context.Background(), 0, d, epoch); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
			t.Fatal(err)
		}
	}
	// One more checkpoint at the same epoch must be a no-op.
	cks := st.Stats().Checkpoints
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints; got != cks {
		t.Errorf("no-op checkpoint counted: %d -> %d", cks, got)
	}

	sd := filepath.Join(dir, "shard-0000")
	snaps, _ := listGens(faultfs.OS, sd, snapPrefix, snapSuffix)
	wals, _ := listGens(faultfs.OS, sd, walPrefix, walSuffix)
	if len(snaps) != keepSnapshots {
		t.Errorf("retained %d snapshots, want %d", len(snaps), keepSnapshots)
	}
	for _, w := range wals {
		if w.epoch < snaps[0].epoch {
			t.Errorf("journal %x predates oldest retained snapshot %x", w.epoch, snaps[0].epoch)
		}
	}
	stt := st.Stats()
	if stt.Checkpoints != 4 || stt.LastCheckpointEpoch != track.Dump().Epoch {
		t.Errorf("stats %+v", stt)
	}
	// A post-checkpoint append lands in the new journal and survives.
	d := insDelta(fid("tail", 1), map[string]int64{"tail": 1}, 1)
	epoch := applyTracked(t, track, d)
	if err := st.Append(context.Background(), 0, d, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if !reflect.DeepEqual(idxs[0].Dump(), track.Dump()) {
		t.Error("recovered state diverged after checkpoint rotation")
	}
}

// TestStoreSnapshotFallback: a corrupt newest snapshot falls back to the
// previous generation, replays the whole journal chain across both, and
// still lands on the exact acknowledged state.
func TestStoreSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)

	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	appendOne := func(name string, v int64) {
		d := insDelta(fid(name, v), map[string]int64{name: 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
	}
	appendOne("pre", 1)
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	appendOne("post", 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sd := filepath.Join(dir, "shard-0000")
	snaps, _ := listGens(faultfs.OS, sd, snapPrefix, snapSuffix)
	if len(snaps) != 2 {
		t.Fatalf("have %d snapshots, want 2", len(snaps))
	}
	newest := snaps[1].path
	b, _ := os.ReadFile(newest)
	b[len(b)/2] ^= 0xff
	os.WriteFile(newest, b, 0o644)

	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if !reflect.DeepEqual(idxs[0].Dump(), track.Dump()) {
		t.Error("fallback recovery diverged from the acknowledged state")
	}
	ri := st2.Recovery()[0]
	if !ri.Fallback || ri.CorruptSnapshots != 1 || ri.SnapshotEpoch != snaps[0].epoch {
		t.Errorf("recovery info %+v", ri)
	}
	// The bad generation was set aside for post-mortem, not deleted.
	if _, err := os.Stat(newest + corruptSuffix); err != nil {
		t.Errorf("corrupt snapshot not renamed: %v", err)
	}
}

// TestStoreUnrecoverable: with every snapshot generation corrupt, recovery
// refuses loudly instead of serving partial state.
func TestStoreUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 3)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sd := filepath.Join(dir, "shard-0000")
	snaps, _ := listGens(faultfs.OS, sd, snapPrefix, snapSuffix)
	for _, g := range snaps {
		b, _ := os.ReadFile(g.path)
		b[len(b)-1] ^= 0xff
		os.WriteFile(g.path, b, 0o644)
	}
	st2, err := Open(context.Background(), dir, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := st2.Recover(context.Background()); err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Errorf("Recover = %v, want unrecoverable error", err)
	}
}

// TestStoreCorruptJournalRefusesRecovery: mid-chain journal damage is not a
// torn tail and must refuse recovery.
func TestStoreCorruptJournalRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 3)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	var firstEnd int64
	for k := 0; k < 2; k++ {
		d := insDelta(fid("j", int64(k)), map[string]int64{"j": 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			firstEnd = st.Stats().JournalBytes
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sd := filepath.Join(dir, "shard-0000")
	wals, _ := listGens(faultfs.OS, sd, walPrefix, walSuffix)
	b, _ := os.ReadFile(wals[0].path)
	b[firstEnd-1] ^= 0xff
	os.WriteFile(wals[0].path, b, 0o644)

	st2, err := Open(context.Background(), dir, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := st2.Recover(context.Background()); !errors.Is(err, ErrCorruptJournal) {
		t.Errorf("Recover = %v, want ErrCorruptJournal", err)
	}
}

// TestStoreTornTailTruncated: a torn final journal record is cut and
// recovery lands on the previous acknowledged epoch; the sealed journal
// accepts appends again.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 3)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	d1 := insDelta(fid("keep", 1), map[string]int64{"keep": 1}, 1)
	e1 := applyTracked(t, track, d1)
	if err := st.Append(context.Background(), 0, d1, e1); err != nil {
		t.Fatal(err)
	}
	acked := track.Dump()
	// The second publish crashes mid-write: simulate by tearing its record.
	d2 := insDelta(fid("torn", 2), map[string]int64{"torn": 1}, 1)
	if err := st.Append(context.Background(), 0, d2, e1+3); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sd := filepath.Join(dir, "shard-0000")
	wals, _ := listGens(faultfs.OS, sd, walPrefix, walSuffix)
	info, _ := os.Stat(wals[0].path)
	if err := os.Truncate(wals[0].path, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	st2, idxs := openStore(t, dir, SyncPolicy{})
	if !reflect.DeepEqual(idxs[0].Dump(), acked) {
		t.Error("torn-tail recovery did not land on the last complete record")
	}
	ri := st2.Recovery()[0]
	if !ri.TruncatedTail || ri.ReplayedRecords != 1 || ri.FinalEpoch != e1 {
		t.Errorf("recovery info %+v", ri)
	}
	// The sealed journal keeps working: append, close, recover again.
	d3 := insDelta(fid("again", 3), map[string]int64{"again": 1}, 1)
	e3 := applyTracked(t, track, d3)
	if err := st2.Append(context.Background(), 0, d3, e3); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, idxs3 := openStore(t, dir, SyncPolicy{})
	defer st3.Close()
	if !reflect.DeepEqual(idxs3[0].Dump(), track.Dump()) {
		t.Error("recovery after sealing diverged")
	}
}

// TestStoreShardedRecovery: per-shard journals recover independently to
// their own epochs.
func TestStoreShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	a, b := smallIndex(t, 3), smallIndex(t, 5)
	ta, tb := cloneIndex(t, a), cloneIndex(t, b)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{a.Dump(), b.Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("onlyb", 9), map[string]int64{"onlyb": 1}, 1)
	epoch := applyTracked(t, tb, d)
	if err := st.Append(context.Background(), 1, d, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if st2.NumShards() != 2 {
		t.Fatalf("NumShards = %d", st2.NumShards())
	}
	if !reflect.DeepEqual(idxs[0].Dump(), ta.Dump()) {
		t.Error("shard 0 diverged")
	}
	if !reflect.DeepEqual(idxs[1].Dump(), tb.Dump()) {
		t.Error("shard 1 diverged")
	}
	if ri := st2.Recovery(); ri[0].ReplayedRecords != 0 || ri[1].ReplayedRecords != 1 {
		t.Errorf("recovery info %+v", ri)
	}
}

// TestStoreSyncInterval: the interval policy defers fsync (appends are only
// dirty) and Sync flushes; durability of the synced prefix holds across a
// reopen.
func TestStoreSyncInterval(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 3)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("iv", 1), map[string]int64{"iv": 1}, 1)
	epoch := applyTracked(t, track, d)
	if err := st.Append(context.Background(), 0, d, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SyncMode != string(SyncInterval) || stats.SyncIntervalMS != time.Hour.Milliseconds() {
		t.Errorf("stats %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if !reflect.DeepEqual(idxs[0].Dump(), track.Dump()) {
		t.Error("interval-synced append lost")
	}
}

// TestStoreBadPolicy: unknown sync modes are rejected at Open.
func TestStoreBadPolicy(t *testing.T) {
	if _, err := Open(context.Background(), t.TempDir(), SyncPolicy{Mode: "sometimes"}); err == nil {
		t.Error("unknown sync mode accepted")
	}
}

// TestStoreRecoverGuards: Recover on a fresh store and double-recovery both
// refuse.
func TestStoreRecoverGuards(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncPolicy{})
	if _, _, err := st.Recover(context.Background()); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("fresh Recover = %v, want ErrNotInitialized", err)
	}
	if err := st.Init(context.Background(), []*fragindex.Dump{smallIndex(t, 2).Dump()}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, _ := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if _, _, err := st2.Recover(context.Background()); err == nil {
		t.Error("second Recover succeeded")
	}
}

// TestSweepSurfacesSyncFailure pins the background-fsync observability
// contract: an interval-policy sweep that fails must not vanish — it
// increments Stats.SyncFailures and records Stats.LastSyncError, because
// a silently failing sweep means applies acknowledged inside the window
// are not actually durable.
func TestSweepSurfacesSyncFailure(t *testing.T) {
	dir := t.TempDir()
	// An hour-long interval keeps the background loop out of the test's
	// way; sweeps are driven by hand.
	st, err := Open(context.Background(), dir, SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(context.Background(), []*fragindex.Dump{smallIndex(t, 2).Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("s", 1), map[string]int64{"kw": 1}, 1)
	if err := st.Append(context.Background(), 0, d, 2); err != nil {
		t.Fatal(err)
	}

	// A healthy sweep flushes the dirty journal and records nothing.
	st.sweep()
	if got := st.Stats(); got.SyncFailures != 0 || got.LastSyncError != "" {
		t.Fatalf("healthy sweep recorded a failure: %+v", got)
	}

	// Sabotage: dirty the journal again, then close its fd out from
	// under the store so the next fsync fails.
	if err := st.Append(context.Background(), 0, d, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.shards[0].j.f.Close(); err != nil {
		t.Fatal(err)
	}
	st.sweep()
	st.sweep()
	got := st.Stats()
	if got.SyncFailures != 2 {
		t.Fatalf("SyncFailures = %d, want 2", got.SyncFailures)
	}
	if got.LastSyncError == "" {
		t.Fatal("LastSyncError empty after failed sweep")
	}
	_ = st.Close() // the sabotaged fd makes the final flush fail; nothing left to assert
}
