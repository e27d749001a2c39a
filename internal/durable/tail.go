package durable

// Replication support: the durable layer already owns everything a read
// replica needs — epoch-stamped CRC-framed journal records and versioned
// snapshot generations — so this file exposes them as a cursor API the
// replication transport (internal/replic) serves over HTTP. Three ideas:
//
//   - The durable epoch of a shard is the epoch of its last acknowledged
//     journal record (or the journal base right after a checkpoint). It
//     advances under the shard lock and wakes long-poll tail waiters.
//   - TailFrom ships journal records strictly after a cursor epoch as the
//     journal's own bytes (the record codec is the frame codec), found
//     through the open journal's in-memory offset index. The open journal
//     is read capped at its acknowledged extent, so bytes from a failed
//     (unacknowledged, possibly poisoned) append are never replicated.
//   - A cursor older than the oldest retained journal's base epoch is
//     unservable — pruning ate the history — and returns ErrTailTruncated
//     so the replica re-bootstraps from the newest snapshot generation.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
)

// ErrTailTruncated reports a tail cursor that predates the oldest retained
// journal: checkpoint pruning removed the records between the cursor and
// the retained chain, so the only way forward is a fresh snapshot
// bootstrap.
var ErrTailTruncated = errors.New("durable: tail truncated: cursor predates retained journals")

// defaultTailBytes bounds one tail chunk when the caller does not.
const defaultTailBytes = 4 << 20

// SegmentInfo describes one on-disk generation file of a shard.
type SegmentInfo struct {
	Epoch    uint64 `json:"epoch"`
	Size     int64  `json:"size"`
	Open     bool   `json:"open,omitempty"`     // journal currently accepting appends
	Poisoned bool   `json:"poisoned,omitempty"` // unrepaired bytes past the acknowledged extent
}

// ShardDurability is one shard's durability state: its durable epoch and
// segment inventory. Surfaced through Stats.PerShard and the replication
// manifest.
type ShardDurability struct {
	Shard        int           `json:"shard"`
	DurableEpoch uint64        `json:"durable_epoch"`
	Snapshots    []SegmentInfo `json:"snapshots,omitempty"`
	Journals     []SegmentInfo `json:"journals,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// TailRecord is one decoded replication frame: the epoch-stamped delta of
// one acknowledged publish.
type TailRecord struct {
	Epoch uint64
	Delta crawl.Delta
}

// TailChunk is one TailFrom result: zero or more codec frames, ready to
// ship verbatim, plus cursor bookkeeping.
type TailChunk struct {
	// Frames holds Records frames in the journal record codec
	// (length + CRC + epoch-stamped delta payload); ParseTailFrames
	// decodes them.
	Frames  []byte
	Records int
	// Next is the cursor for the next poll: the epoch of the last
	// included record, or the request cursor when nothing qualified.
	Next uint64
	// DurableEpoch is the shard's durable epoch when the chunk was cut;
	// Next < DurableEpoch means more records are immediately available.
	DurableEpoch uint64
}

func (s *Store) checkShard(shard int) error {
	if s.man == nil {
		return fmt.Errorf("%w: %s", ErrNotInitialized, s.dir)
	}
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("durable: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return nil
}

// DurableEpoch returns a shard's durable epoch: the last acknowledged
// journal record's epoch (the journal base when none followed it).
func (s *Store) DurableEpoch(shard int) (uint64, error) {
	if err := s.checkShard(shard); err != nil {
		return 0, err
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastEpoch, nil
}

// WaitForEpoch blocks until the shard's durable epoch exceeds after, the
// wait elapses, the ctx is done, or the store closes — the long-poll
// primitive behind tail streaming. It returns the durable epoch observed
// last; the error is non-nil only for ctx cancellation.
func (s *Store) WaitForEpoch(ctx context.Context, shard int, after uint64, wait time.Duration) (uint64, error) {
	if err := s.checkShard(shard); err != nil {
		return 0, err
	}
	ss := s.shards[shard]
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ss.mu.Lock()
		cur := ss.lastEpoch
		if cur > after {
			ss.mu.Unlock()
			return cur, nil
		}
		if ss.tailWatch == nil {
			ss.tailWatch = make(chan struct{})
		}
		ch := ss.tailWatch
		ss.mu.Unlock()
		select {
		case <-ctx.Done():
			return cur, ctx.Err()
		case <-s.stop:
			return cur, nil
		case <-timer.C:
			return cur, nil
		case <-ch:
		}
	}
}

// SnapshotGens enumerates a shard's snapshot generations, oldest first.
func (s *Store) SnapshotGens(shard int) ([]SegmentInfo, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	return s.segmentList(s.shards[shard].dir, snapPrefix, snapSuffix)
}

func (s *Store) segmentList(dir, prefix, suffix string) ([]SegmentInfo, error) {
	gens, err := listGens(s.fs, dir, prefix, suffix)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(gens))
	for _, g := range gens {
		seg := SegmentInfo{Epoch: g.epoch}
		if fi, serr := s.fs.Stat(g.path); serr == nil {
			seg.Size = fi.Size()
		}
		out = append(out, seg)
	}
	return out, nil
}

// ShardDurability reports one shard's durable epoch and segment inventory.
// Enumeration failures land in the Error field rather than failing the
// call — this feeds stats endpoints, which must not go dark with the disk.
func (s *Store) ShardDurability(shard int) ShardDurability {
	sd := ShardDurability{Shard: shard}
	if err := s.checkShard(shard); err != nil {
		sd.Error = err.Error()
		return sd
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	sd.DurableEpoch = ss.lastEpoch
	var openPath string
	var openSeg SegmentInfo
	if ss.j != nil {
		openPath = ss.j.path
		openSeg = SegmentInfo{
			Epoch:    ss.j.baseEpoch,
			Size:     ss.j.size,
			Open:     true,
			Poisoned: ss.j.poisoned,
		}
	}
	ss.mu.Unlock()
	if snaps, err := s.segmentList(ss.dir, snapPrefix, snapSuffix); err != nil {
		sd.Error = err.Error()
	} else {
		sd.Snapshots = snaps
	}
	wals, err := s.segmentList(ss.dir, walPrefix, walSuffix)
	if err != nil {
		sd.Error = err.Error()
		return sd
	}
	for i := range wals {
		if filepath.Join(ss.dir, walName(wals[i].Epoch)) == openPath {
			wals[i] = openSeg
		}
	}
	sd.Journals = wals
	return sd
}

// OpenSnapshot opens one snapshot generation read-only through the
// filesystem seam, returning the file and its size. The caller owns the
// close. The file is a ReadSeeker, so HTTP range requests can resume an
// interrupted bootstrap fetch mid-file.
func (s *Store) OpenSnapshot(shard int, epoch uint64) (faultfs.File, int64, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(s.shards[shard].dir, snapName(epoch))
	fi, err := s.fs.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// TailFrom cuts one tail chunk: every acknowledged journal record with
// epoch strictly greater than from, oldest first, up to roughly maxBytes
// (at least one record always fits). A cursor older than the retained
// chain returns ErrTailTruncated.
//
// A poll costs O(records shipped), not O(journal): the open journal's
// offset index seeks straight to the first record past the cursor, only
// the shipped bytes are read, and they ship verbatim — the journal record
// codec is the tail frame codec — after each is length-, CRC-, epoch- and
// decode-checked. Sealed journals are read only while they still hold a
// record past the cursor, which a caught-up replica never needs.
//
// The open journal is read capped at its acknowledged extent as sampled
// under the shard lock, so a poisoned journal's garbage suffix and any
// record whose fsync never completed are invisible to replicas — a replica
// can never get ahead of what the leader acknowledged durable.
func (s *Store) TailFrom(ctx context.Context, shard int, from uint64, maxBytes int) (*TailChunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		maxBytes = defaultTailBytes
	}
	ss := s.shards[shard]

	// Sample a consistent view under the shard lock: the durable epoch, the
	// sealed journals still holding records past the cursor, and the open
	// journal's identity, acknowledged extent and offset index. Records
	// appended after the sample ride the next poll.
	ss.mu.Lock()
	j := ss.j
	if j == nil {
		ss.mu.Unlock()
		return nil, fmt.Errorf("%w: tail of shard %d", ErrClosed, shard)
	}
	durable := ss.lastEpoch
	oldest, top := j.baseEpoch, j.lastRecord()
	if len(ss.sealed) > 0 {
		oldest = ss.sealed[0].base
	}
	var sealed []sealedJournal
	for _, sj := range ss.sealed {
		top = max(top, sj.last)
		if sj.last > from {
			sealed = append(sealed, sj)
		}
	}
	openPath, openBase, openSize, index := j.path, j.baseEpoch, j.size, j.index
	ss.mu.Unlock()

	if from < oldest {
		return nil, fmt.Errorf("%w (cursor %d, oldest retained base %d)", ErrTailTruncated, from, oldest)
	}
	chunk := &TailChunk{Next: from, DurableEpoch: durable}
	for _, sj := range sealed {
		if chunk.full(maxBytes) {
			return chunk, nil
		}
		b, err := s.fs.ReadFile(sj.path)
		if errors.Is(err, fs.ErrNotExist) {
			// A checkpoint pruned it after the sample: the history the
			// cursor needs is gone.
			return nil, fmt.Errorf("%w (cursor %d, %s pruned)", ErrTailTruncated, from, filepath.Base(sj.path))
		}
		if err != nil {
			return nil, err
		}
		if err := chunk.addJournal(b, filepath.Base(sj.path), maxBytes); err != nil {
			return nil, err
		}
	}
	if i := firstAfter(index, chunk.Next); i < len(index) && !chunk.full(maxBytes) {
		// Read only what can ship: up to the first record boundary at
		// which the chunk is full, else the acknowledged extent.
		start, end := index[i].off, openSize
		room := int64(maxBytes - len(chunk.Frames))
		if k := sort.Search(len(index)-i-1, func(k int) bool { return index[i+1+k].off-start >= room }); i+1+k < len(index) {
			end = index[i+1+k].off
		}
		b, err := readRange(s.fs, openPath, start, end)
		if err != nil {
			return nil, err
		}
		prev := openBase
		if i > 0 {
			prev = index[i-1].epoch
		}
		if err := chunk.add(b, prev, maxBytes); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorruptJournal, filepath.Base(openPath), err)
		}
	}
	if chunk.Records == 0 && top > from {
		// Never report a record-free advance past a record the shard
		// holds: the replica would stamp the epoch without the delta.
		return nil, fmt.Errorf("%w: shard %d holds epoch %d past cursor %d but the tail shipped none",
			ErrCorruptJournal, shard, top, from)
	}
	return chunk, nil
}

// addJournal verifies a whole sealed journal file and ships its records
// past the chunk's cursor.
func (c *TailChunk) addJournal(b []byte, name string, maxBytes int) error {
	base, err := journalBase(b, name)
	if err != nil {
		return err
	}
	if err := c.add(b[walHeaderSize:], base, maxBytes); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptJournal, name, err)
	}
	return nil
}

// add verifies a run of journal record frames and ships, verbatim, the
// ones past the chunk's cursor until the chunk holds maxBytes (it always
// takes at least one record). Every frame is length- and CRC-checked and
// its epoch must rise strictly from prev; a shipped frame is also
// decode-checked. Shipped frames form one contiguous run — epochs rise —
// so a chunk cut from one journal aliases b instead of copying it.
func (c *TailChunk) add(b []byte, prev uint64, maxBytes int) error {
	var start, end int64
	n := 0
	for off := int64(0); off < int64(len(b)); {
		epoch, payload, next, err := readFrame(b, off)
		if err != nil {
			return err
		}
		if epoch <= prev {
			return fmt.Errorf("non-monotonic epoch %d at %d", epoch, off)
		}
		prev = epoch
		if epoch > c.Next {
			if n == 0 {
				start = off
			}
			if c.Records+n > 0 && len(c.Frames)+int(off-start) >= maxBytes {
				break // full
			}
			if err := checkDelta(payload); err != nil {
				return fmt.Errorf("record at %d: %v", off, err)
			}
			n++
			c.Next = epoch
			end = next
		}
		off = next
	}
	if n == 0 {
		return nil
	}
	if c.Frames == nil {
		c.Frames = b[start:end:end]
	} else {
		c.Frames = append(c.Frames, b[start:end]...)
	}
	c.Records += n
	return nil
}

// full reports whether the chunk takes no further record: it holds one
// and has reached maxBytes.
func (c *TailChunk) full(maxBytes int) bool {
	return c.Records > 0 && len(c.Frames) >= maxBytes
}

// readRange reads bytes [start, end) of a file through the filesystem seam.
func readRange(fsys faultfs.FS, path string, start, end int64) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	b := make([]byte, end-start)
	if _, err = f.Seek(start, io.SeekStart); err == nil {
		_, err = io.ReadFull(f, b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// ParseTailFrames decodes a chunk of tail frames. Strict: a short, torn,
// or checksum-failing frame is an error — the transport delivers whole
// chunks or nothing, so every defect is corruption, not a crash artifact.
func ParseTailFrames(b []byte) ([]TailRecord, error) {
	var out []TailRecord
	for off := int64(0); off < int64(len(b)); {
		epoch, payload, next, err := readFrame(b, off)
		if err != nil {
			return nil, fmt.Errorf("%w: tail frame: %v", ErrCorruptJournal, err)
		}
		del, derr := decodeDelta(payload)
		if derr != nil {
			return nil, fmt.Errorf("%w: tail frame at %d: %v", ErrCorruptJournal, off, derr)
		}
		if n := len(out); n > 0 && epoch <= out[n-1].Epoch {
			return nil, fmt.Errorf("%w: tail frame: non-monotonic epoch %d at %d", ErrCorruptJournal, epoch, off)
		}
		out = append(out, TailRecord{Epoch: epoch, Delta: del})
		off = next
	}
	return out, nil
}
