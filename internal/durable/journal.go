package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/crawl"
	"repro/internal/faultfs"
)

// Journal file format:
//
//	magic     [8]byte  "DASHWAL1"
//	version   uint32   little-endian
//	baseEpoch uint64   epoch of the snapshot this journal extends
//	headerCRC uint32   CRC-32 (IEEE) of the 20 bytes above
//	records...
//
// Each record:
//
//	length  uint32  payload bytes
//	crc     uint32  CRC-32 (IEEE) of the payload
//	payload         epoch uint64 (little-endian) + encoded delta
//
// A record is appended with one Write and (policy permitting) fsynced
// before the publish swap that makes its delta visible. Crashes therefore
// leave at most a torn suffix: a partial record at end-of-file, which
// replay truncates. A CRC failure on a complete record that is *not* the
// final one cannot come from a torn write — that is corruption, and replay
// refuses it.

const (
	walMagic      = "DASHWAL1"
	walVersion    = 1
	walHeaderSize = 8 + 4 + 8 + 4
	recHeaderSize = 4 + 4
	maxRecordSize = 1 << 28
)

// journal is one shard's open write-ahead log. Not self-locking: the
// owning shardStore serializes access.
type journal struct {
	f         faultfs.File
	path      string
	baseEpoch uint64
	size      int64 // bytes of acknowledged records (header + records)
	// index locates every acknowledged record, one entry per record in
	// file (= epoch) order: append extends it only once the record is
	// acknowledged, so index and size always describe the same extent.
	// Entries are never rewritten, so the tail server may search a slice
	// header it sampled under the shard lock after releasing it.
	index []walEntry
	dirty bool // unsynced appends (interval policy)
	// poisoned marks a journal whose failed append could not be truncated
	// back to the acknowledged extent: bytes of unknown validity sit past
	// size, so further appends would interleave with garbage. A poisoned
	// journal only leaves service through degraded-mode recovery, which
	// seals (re-truncates) it and rotates to a fresh journal.
	poisoned bool
}

// walEntry locates one acknowledged journal record.
type walEntry struct {
	epoch uint64
	off   int64 // file offset of the record's length field
}

// createJournal writes a fresh journal file, open for appends: a header,
// then carry — verbatim records of the journal it replaces, located by
// carried (offsets relative to carry[0]). The file is written and fsynced
// under a temp name and renamed over path (replacing any uncommitted
// predecessor), so a crash leaves either no new journal or a complete
// one, never a journal holding half of what it must carry. The caller
// fsyncs the directory.
func createJournal(fsys faultfs.FS, path string, baseEpoch uint64, carry []byte, carried []walEntry) (*journal, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, walHeaderSize+len(carry))
	b = append(b, walMagic...)
	b = binary.LittleEndian.AppendUint32(b, walVersion)
	b = binary.LittleEndian.AppendUint64(b, baseEpoch)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	b = append(b, carry...)
	if _, err := f.Write(b); err != nil {
		//lint:ignore droppederr already failing: the write error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore droppederr already failing: the sync error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		//lint:ignore droppederr already failing: the rename error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	index := make([]walEntry, len(carried))
	for i, e := range carried {
		index[i] = walEntry{epoch: e.epoch, off: walHeaderSize + e.off}
	}
	return &journal{f: f, path: path, baseEpoch: baseEpoch, size: int64(len(b)), index: index}, nil
}

// openJournal opens an existing, already-verified journal for appends at
// the given size (replay reports the valid extent and the records in it;
// anything past it has been truncated away).
func openJournal(fsys faultfs.FS, path string, baseEpoch uint64, size int64, index []walEntry) (*journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		//lint:ignore droppederr already failing: the seek error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	return &journal{f: f, path: path, baseEpoch: baseEpoch, size: size, index: index}, nil
}

// lastRecord is the epoch of the journal's last acknowledged record (0
// when it holds none).
func (j *journal) lastRecord() uint64 {
	if n := len(j.index); n > 0 {
		return j.index[n-1].epoch
	}
	return 0
}

// firstAfter returns the position of the first index entry with epoch > e.
func firstAfter(index []walEntry, e uint64) int {
	return sort.Search(len(index), func(i int) bool { return index[i].epoch > e })
}

// errPoisoned marks append failures on a journal whose tail could not be
// repaired; retrying is pointless until recovery rotates the journal.
var errPoisoned = fmt.Errorf("journal poisoned: unrepaired bytes past the acknowledged extent")

// append writes one record; with syncNow it is fsynced before returning —
// the write-ahead guarantee for the `always` policy. Under `interval` the
// record is only marked dirty and a background sweep fsyncs it.
//
// On failure the record is not acknowledged, so append repairs the file
// back to the acknowledged extent (truncate + re-seek) before returning;
// a clean repair leaves the journal ready for a retry. If the repair
// itself fails the journal is poisoned: the failed record's bytes linger
// past size, and only degraded-mode recovery (seal + rotate behind a
// fresh checkpoint) returns the shard to service.
func (j *journal) append(del crawl.Delta, epoch uint64, syncNow bool) error {
	if j.poisoned {
		return fmt.Errorf("durable: %s: %w", filepath.Base(j.path), errPoisoned)
	}
	rec := appendRecord(nil, epoch, del)
	if _, err := j.f.Write(rec); err != nil {
		j.repair()
		return err
	}
	crashPoint("journal.append.before-sync")
	if syncNow {
		if err := j.f.Sync(); err != nil {
			// The record reached the file but its durability is unknown;
			// it was never acknowledged, so cut it back out — a retry
			// rewrites it whole (leaving it would double-append the epoch).
			j.repair()
			return err
		}
		crashPoint("journal.append.after-sync")
	} else {
		j.dirty = true
	}
	j.index = append(j.index, walEntry{epoch: epoch, off: j.size})
	j.size += int64(len(rec))
	return nil
}

// appendRecord appends one record in the journal record codec — length,
// payload CRC, then the epoch-stamped encoded delta. The codec doubles as
// the replication tail frame, so journal bytes ship to replicas verbatim.
func appendRecord(buf []byte, epoch uint64, del crawl.Delta) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = appendDelta(buf, del)
	payload := buf[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// repair restores the file to the acknowledged extent after a failed
// append: truncate away whatever the failed write left behind and re-seek
// so the next append lands at size. Either step failing poisons the
// journal.
func (j *journal) repair() {
	if err := j.f.Truncate(j.size); err != nil {
		j.poisoned = true
		return
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		j.poisoned = true
	}
}

// seal makes a poisoned journal's on-disk bytes end exactly at the
// acknowledged extent, trying the (possibly damaged) fd first and the
// path as fallback. Called by degraded-mode recovery with the disk
// reprobed healthy, right before the journal is rotated out.
func (j *journal) seal(fsys faultfs.FS) error {
	if !j.poisoned {
		return nil
	}
	if err := j.f.Truncate(j.size); err != nil {
		if perr := fsys.Truncate(j.path, j.size); perr != nil {
			return fmt.Errorf("durable: sealing %s: %w", filepath.Base(j.path), perr)
		}
	}
	j.poisoned = false
	return nil
}

// sync flushes any unsynced appends (the interval policy's sweep).
func (j *journal) sync() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	return nil
}

func (j *journal) close() error {
	if err := j.sync(); err != nil {
		//lint:ignore droppederr already failing: the final-sync error (unsynced appends!) is returned; close is best-effort fd cleanup
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// walRecord is one decoded journal record.
type walRecord struct {
	epoch uint64
	off   int64 // file offset of the record
	delta crawl.Delta
}

// walScan is the result of reading one journal file.
type walScan struct {
	baseEpoch uint64
	records   []walRecord
	validSize int64 // bytes up to and including the last valid record
	torn      bool  // file extends past validSize with a torn suffix
}

// index returns the scan's records as a journal offset index.
func (s *walScan) index() []walEntry {
	out := make([]walEntry, len(s.records))
	for i, r := range s.records {
		out[i] = walEntry{epoch: r.epoch, off: r.off}
	}
	return out
}

// readJournal reads and verifies one journal file.
//
// A torn suffix — a partial header, a partial record, or a CRC failure on
// the *final* record — is reported via torn/validSize when allowTorn is
// set (the newest journal, whose tail a crash can legitimately tear). A
// complete record failing its CRC with more data after it is never a torn
// write, and a torn condition in an older journal means acknowledged
// records vanished from the middle of the chain: both return
// ErrCorruptJournal.
func readJournal(fsys faultfs.FS, path string, allowTorn bool) (*walScan, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJournal(b, filepath.Base(path), allowTorn)
}

// journalBase verifies a journal's header and returns its base epoch.
func journalBase(b []byte, name string) (uint64, error) {
	if len(b) < walHeaderSize || string(b[:8]) != walMagic ||
		crc32.ChecksumIEEE(b[:walHeaderSize-4]) != binary.LittleEndian.Uint32(b[walHeaderSize-4:walHeaderSize]) {
		return 0, fmt.Errorf("%w: %s: bad header", ErrCorruptJournal, name)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != walVersion {
		return 0, fmt.Errorf("durable: journal %s: unsupported format version %d", name, v)
	}
	return binary.LittleEndian.Uint64(b[12:20]), nil
}

// parseJournal verifies and decodes journal bytes already in memory.
func parseJournal(b []byte, name string, allowTorn bool) (*walScan, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorruptJournal, name, fmt.Sprintf(format, args...))
	}
	base, err := journalBase(b, name)
	if err != nil {
		// A header can only be torn by a crash during journal creation, in
		// which case nothing follows it.
		if allowTorn && len(b) <= walHeaderSize && errors.Is(err, ErrCorruptJournal) {
			return &walScan{validSize: 0, torn: true}, nil
		}
		return nil, err
	}
	scan := &walScan{baseEpoch: base, validSize: walHeaderSize}
	prev := base
	for off := int64(walHeaderSize); off < int64(len(b)); {
		epoch, payload, next, ferr := readFrame(b, off)
		if ferr != nil {
			// Only a crash-torn suffix is tolerable: a short final frame,
			// or a final frame failing its CRC.
			final := errors.Is(ferr, errFrameShort) || (errors.Is(ferr, errFrameCRC) && next == int64(len(b)))
			if !final {
				return nil, corrupt("%v", ferr)
			}
			if !allowTorn {
				return nil, corrupt("torn record mid-chain: %v", ferr)
			}
			scan.torn = true
			return scan, nil
		}
		del, derr := decodeDelta(payload)
		if derr != nil {
			return nil, corrupt("record at %d: %v", off, derr)
		}
		if epoch <= prev {
			return nil, corrupt("non-monotonic epoch %d at %d", epoch, off)
		}
		scan.records = append(scan.records, walRecord{epoch: epoch, off: off, delta: del})
		prev, off = epoch, next
		scan.validSize = off
	}
	return scan, nil
}

var (
	errFrameShort = errors.New("partial record")
	errFrameCRC   = errors.New("checksum mismatch")
)

// readFrame checks the record frame at b[off:] — a complete header, a
// plausible length, a payload that matches its CRC and holds an epoch —
// and returns the epoch, the encoded delta and the offset just past the
// frame (also on a CRC failure, so callers can tell a torn final frame
// from mid-file damage). A frame cut short by the end of b is
// errFrameShort, a CRC failure errFrameCRC.
func readFrame(b []byte, off int64) (epoch uint64, delta []byte, next int64, err error) {
	total := int64(len(b))
	if total-off < recHeaderSize {
		return 0, nil, 0, fmt.Errorf("%w header at %d", errFrameShort, off)
	}
	length := int64(binary.LittleEndian.Uint32(b[off:]))
	if length > maxRecordSize {
		return 0, nil, 0, fmt.Errorf("implausible record length %d at %d", length, off)
	}
	if total-off-recHeaderSize < length {
		return 0, nil, 0, fmt.Errorf("%w payload at %d", errFrameShort, off)
	}
	next = off + recHeaderSize + length
	payload := b[off+recHeaderSize : next]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[off+4:]) {
		return 0, nil, next, fmt.Errorf("%w at %d", errFrameCRC, off)
	}
	if length < 8 {
		return 0, nil, 0, fmt.Errorf("record at %d too short for an epoch", off)
	}
	return binary.LittleEndian.Uint64(payload), payload[8:], next, nil
}
