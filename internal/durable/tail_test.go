package durable

// Tests for the replication cursor API: durable epochs, tail chunks,
// truncation after pruning, the long-poll primitive, and the frame codec.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/fragindex"
)

// seedTailStore initializes a one-shard store from a 4-fragment index and
// returns it with the seed epoch (the journal base).
func seedTailStore(t *testing.T, dir string) (*Store, uint64) {
	t.Helper()
	idx := smallIndex(t, 4)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return st, idx.Dump().Epoch
}

// appendN appends n single-insert deltas with consecutive epochs after
// base and returns them in order.
func appendN(t *testing.T, st *Store, base uint64, n int, tag string) []crawl.Delta {
	t.Helper()
	out := make([]crawl.Delta, 0, n)
	for i := 0; i < n; i++ {
		d := insDelta(fid(tag, int64(i)), map[string]int64{fmt.Sprintf("%s%d", tag, i): 1}, 1)
		if err := st.Append(context.Background(), 0, d, base+uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestDurableEpochAdvances: Init seeds the durable epoch at the journal
// base; every Append advances it to the record's epoch.
func TestDurableEpochAdvances(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	if e, err := st.DurableEpoch(0); err != nil || e != seed {
		t.Fatalf("seed durable epoch = %d, %v; want %d", e, err, seed)
	}
	appendN(t, st, seed, 3, "t")
	if e, _ := st.DurableEpoch(0); e != seed+3 {
		t.Fatalf("post-append durable epoch = %d, want %d", e, seed+3)
	}
	if _, err := st.DurableEpoch(7); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestTailFromStream: TailFrom returns exactly the records past the
// cursor, oldest first, and the decoded frames reproduce the appended
// deltas byte-for-byte; a caught-up cursor returns an empty chunk whose
// DurableEpoch equals the cursor.
func TestTailFromStream(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	deltas := appendN(t, st, seed, 3, "s")

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 3 || chunk.Next != seed+3 || chunk.DurableEpoch != seed+3 {
		t.Fatalf("chunk = %+v", chunk)
	}
	recs, err := ParseTailFrames(chunk.Frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Epoch != seed+uint64(i)+1 {
			t.Errorf("record %d epoch %d, want %d", i, rec.Epoch, seed+uint64(i)+1)
		}
		if !reflect.DeepEqual(rec.Delta, deltas[i]) {
			t.Errorf("record %d delta diverged:\ngot  %+v\nwant %+v", i, rec.Delta, deltas[i])
		}
	}

	// A mid-stream cursor skips what it already covers.
	chunk, err = st.TailFrom(context.Background(), 0, seed+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 1 || chunk.Next != seed+3 {
		t.Fatalf("mid-cursor chunk = %+v", chunk)
	}

	// Caught up: empty chunk, cursor unchanged.
	chunk, err = st.TailFrom(context.Background(), 0, seed+3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 0 || chunk.Next != seed+3 || chunk.DurableEpoch != seed+3 {
		t.Fatalf("caught-up chunk = %+v", chunk)
	}
}

// TestTailFromMaxBytes: a tiny byte budget still ships at least one
// record per chunk, and chaining chunks by Next drains the stream.
func TestTailFromMaxBytes(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	appendN(t, st, seed, 5, "b")

	got := 0
	cursor := seed
	for i := 0; i < 10 && got < 5; i++ {
		chunk, err := st.TailFrom(context.Background(), 0, cursor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Records < 1 {
			t.Fatalf("budget starved the chunk at cursor %d", cursor)
		}
		got += chunk.Records
		cursor = chunk.Next
	}
	if got != 5 || cursor != seed+5 {
		t.Fatalf("drained %d records to cursor %d, want 5 to %d", got, cursor, seed+5)
	}
}

// TestTailSpansRotation: a checkpoint rotates the journal; a cursor from
// before the rotation still streams the full record sequence across both
// retained journal files.
func TestTailSpansRotation(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	seed := idx.Dump().Epoch

	var want []uint64
	for k := 0; k < 3; k++ {
		d := insDelta(fid("pre", int64(k)), map[string]int64{"pre": 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
		want = append(want, epoch)
	}
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		d := insDelta(fid("post", int64(k)), map[string]int64{"post": 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
		want = append(want, epoch)
	}

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTailFrames(chunk.Frames)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, rec := range recs {
		got = append(got, rec.Epoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epochs across rotation = %v, want %v", got, want)
	}
}

// TestTailTruncatedAfterPrune: once checkpoint retention prunes the
// journals a stale cursor needs, TailFrom reports ErrTailTruncated — the
// signal that forces a replica re-bootstrap.
func TestTailTruncatedAfterPrune(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	seed := idx.Dump().Epoch

	// keepSnapshots generations plus one: the seed journal must be pruned.
	for round := 0; round <= keepSnapshots+1; round++ {
		for k := 0; k < 2; k++ {
			d := insDelta(fid("r", int64(round*10+k)), map[string]int64{"r": 1}, 1)
			epoch := applyTracked(t, track, d)
			if err := st.Append(context.Background(), 0, d, epoch); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.TailFrom(context.Background(), 0, seed, 0); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("stale cursor error = %v, want ErrTailTruncated", err)
	}
	// The current epoch still tails fine.
	cur, _ := st.DurableEpoch(0)
	if _, err := st.TailFrom(context.Background(), 0, cur, 0); err != nil {
		t.Fatalf("fresh cursor failed: %v", err)
	}
}

// TestTailOpenSegmentExtentGuard: garbage appended to the open journal
// file past the acknowledged extent (what a torn or poisoned append
// leaves behind) is invisible to TailFrom — replicas only ever see
// acknowledged records.
func TestTailOpenSegmentExtentGuard(t *testing.T) {
	dir := t.TempDir()
	st, seed := seedTailStore(t, dir)
	defer st.Close()
	appendN(t, st, seed, 2, "g")

	// Find the open journal and append garbage directly, bypassing the
	// store — simulating a failed append's partial write.
	sd := st.ShardDurability(0)
	if len(sd.Journals) == 0 {
		t.Fatal("no journals listed")
	}
	var open SegmentInfo
	for _, j := range sd.Journals {
		if j.Open {
			open = j
		}
	}
	if !open.Open {
		t.Fatal("no open journal in inventory")
	}
	path := filepath.Join(dir, "shard-0000", walName(open.Epoch))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage past the acknowledged extent")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatalf("tail over dirty suffix failed: %v", err)
	}
	if chunk.Records != 2 {
		t.Fatalf("chunk shipped %d records, want 2", chunk.Records)
	}
	if _, err := ParseTailFrames(chunk.Frames); err != nil {
		t.Fatalf("frames corrupted by unacknowledged bytes: %v", err)
	}
}

// TestWaitForEpoch: the long-poll primitive wakes on an append, times out
// quietly when nothing happens, and honors ctx cancellation.
func TestWaitForEpoch(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()

	// Timeout path: no append, short wait, current epoch back, no error.
	e, err := st.WaitForEpoch(context.Background(), 0, seed, 20*time.Millisecond)
	if err != nil || e != seed {
		t.Fatalf("timeout wait = %d, %v; want %d, nil", e, err, seed)
	}

	// Wake path: an append lands while a waiter is parked.
	done := make(chan struct{})
	var woke uint64
	var werr error
	go func() {
		defer close(done)
		woke, werr = st.WaitForEpoch(context.Background(), 0, seed, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	appendN(t, st, seed, 1, "w")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke on append")
	}
	if werr != nil || woke != seed+1 {
		t.Fatalf("woken wait = %d, %v; want %d, nil", woke, werr, seed+1)
	}

	// Cancellation path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.WaitForEpoch(ctx, 0, seed+1, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait error = %v", err)
	}
}

// TestShardDurabilityInventory: Stats' per-shard block reports the
// durable epoch and the live segment inventory, marking the open journal.
func TestShardDurabilityInventory(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("x", 1), map[string]int64{"x": 1}, 1)
	epoch := applyTracked(t, track, d)
	if err := st.Append(context.Background(), 0, d, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}

	full := st.Stats()
	if len(full.PerShard) != 1 {
		t.Fatalf("PerShard count = %d", len(full.PerShard))
	}
	sd := full.PerShard[0]
	if sd.Error != "" {
		t.Fatalf("inventory error: %s", sd.Error)
	}
	if sd.DurableEpoch != epoch {
		t.Errorf("durable epoch %d, want %d", sd.DurableEpoch, epoch)
	}
	if len(sd.Snapshots) != 2 {
		t.Errorf("snapshot inventory %+v, want seed + checkpoint", sd.Snapshots)
	}
	opens := 0
	for _, j := range sd.Journals {
		if j.Open {
			opens++
		}
		if j.Size == 0 {
			t.Errorf("journal %+v reports zero size", j)
		}
	}
	if opens != 1 {
		t.Errorf("%d open journals in inventory, want 1", opens)
	}
}

// TestOpenSnapshotServesBytes: OpenSnapshot hands back the exact on-disk
// generation — decoding what it serves reproduces the checkpoint dump.
func TestOpenSnapshotServesBytes(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 6)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	gens, err := st.SnapshotGens(0)
	if err != nil || len(gens) != 1 {
		t.Fatalf("gens = %+v, %v", gens, err)
	}
	f, size, err := st.OpenSnapshot(0, gens[0].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeSnapshot(b, "served")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dump, idx.Dump()) {
		t.Error("served snapshot decoded to a different dump")
	}
	if _, _, err := st.OpenSnapshot(0, gens[0].Epoch+999); err == nil {
		t.Error("nonexistent generation opened")
	}
}

// TestParseTailFramesRejectsDamage: every class of frame damage — torn
// header, torn payload, flipped byte, non-monotonic epochs — is an error,
// never a silent partial decode.
func TestParseTailFramesRejectsDamage(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, 10, insDelta(fid("a", 1), map[string]int64{"x": 2}, 2))
	frameBoundary := len(buf) // a cut exactly here is a valid 1-frame stream
	buf = appendRecord(buf, 12, rmDelta(fid("a", 1)))

	if recs, err := ParseTailFrames(buf); err != nil || len(recs) != 2 {
		t.Fatalf("clean parse = %d recs, %v", len(recs), err)
	}
	if recs, err := ParseTailFrames(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty parse = %d recs, %v", len(recs), err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if cut == frameBoundary {
			continue
		}
		if _, err := ParseTailFrames(buf[:cut]); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
	for i := 0; i < len(buf); i++ {
		dam := append([]byte(nil), buf...)
		dam[i] ^= 0x40
		if _, err := ParseTailFrames(dam); err == nil {
			t.Fatalf("flipped byte %d parsed cleanly", i)
		}
	}

	// Non-monotonic epochs: two individually valid frames out of order.
	var rev []byte
	rev = appendRecord(rev, 12, rmDelta(fid("a", 1)))
	rev = appendRecord(rev, 10, insDelta(fid("a", 1), map[string]int64{"x": 2}, 2))
	if _, err := ParseTailFrames(rev); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("epoch regression parsed: %v", err)
	}
}

// TestCheckpointDumpRaceKeepsLateRecord: the checkpoint dump/rotation
// race. The facade cuts a shard's Dump and only then calls Checkpoint, so
// a publish can land in between — journaled in the old journal with an
// epoch past the new journal's base. The new journal must carry that
// record: a cursor at the dump epoch tails it (not a record-free advance
// the replica would stamp without the delta), and after the old journal
// is pruned the fallback recovery chain still replays it.
func TestCheckpointDumpRaceKeepsLateRecord(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	appendTracked := func(d crawl.Delta) uint64 {
		t.Helper()
		e := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	appendTracked(insDelta(fid("race", 1), map[string]int64{"early": 1}, 1))

	// Dump, Append, Checkpoint(dump).
	dump := track.Dump()
	late := insDelta(fid("race", 2), map[string]int64{"late": 1}, 1)
	lateEpoch := appendTracked(late)
	if err := st.Checkpoint(context.Background(), 0, dump); err != nil {
		t.Fatal(err)
	}

	chunk, err := st.TailFrom(context.Background(), 0, dump.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 1 || chunk.Next != lateEpoch || chunk.DurableEpoch != lateEpoch {
		t.Fatalf("tail from the dump epoch = %d records, next %d, durable %d; want the late record %d",
			chunk.Records, chunk.Next, chunk.DurableEpoch, lateEpoch)
	}
	recs, err := ParseTailFrames(chunk.Frames)
	if err != nil || !reflect.DeepEqual(recs[0].Delta, late) {
		t.Fatalf("late record = %+v, %v", recs, err)
	}

	// One more checkpoint prunes the journal the race wrote to; the
	// fallback chain (snapshot at the dump epoch + its journal) must still
	// hold the late record.
	appendTracked(insDelta(fid("race", 3), map[string]int64{"after": 1}, 1))
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, "shard-0000", snapName(track.Dump().Epoch))
	if err := os.WriteFile(newest, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, idxs := openStore(t, dir, SyncPolicy{})
	defer st2.Close()
	if ri := st2.Recovery(); !ri[0].Fallback || ri[0].SnapshotEpoch != dump.Epoch {
		t.Fatalf("recovery %+v, want a fallback to the dump-epoch snapshot", ri[0])
	}
	if !reflect.DeepEqual(idxs[0].Dump(), track.Dump()) {
		t.Error("fallback recovery lost the record journaled during the checkpoint race")
	}
}

// BenchmarkTailFrom measures one tail poll by a replica one record behind
// the leader — the steady-state poll of a caught-up replica — against open
// journals of growing length. The offset index makes the poll
// O(records shipped), so the cost must stay flat in journal length.
func BenchmarkTailFrom(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			idx := smallIndex(b, 4)
			st, err := Open(context.Background(), b.TempDir(), SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
				b.Fatal(err)
			}
			epoch := idx.Dump().Epoch
			for i := 0; i < n; i++ {
				epoch++
				d := insDelta(fid("bench", int64(i)), map[string]int64{"alpha": 2, "beta": 1, fmt.Sprintf("k%d", i%50): 3}, 6)
				if err := st.Append(context.Background(), 0, d, epoch); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chunk, err := st.TailFrom(context.Background(), 0, epoch-1, 64<<10)
				if err != nil || chunk.Records != 1 {
					b.Fatalf("chunk %+v, %v", chunk, err)
				}
			}
		})
	}
}
