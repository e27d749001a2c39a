package durable

// Native fuzz targets for the decoders that face the network and the disk
// on the replication and recovery paths. Seed corpora live under
// testdata/fuzz/; CI runs each target briefly with -fuzz.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// seedFrames is a small valid frame run: an insert, an update, a remove.
func seedFrames() []byte {
	var b []byte
	b = appendRecord(b, 3, insDelta(fid("a", 1), map[string]int64{"x": 2, "y": 1}, 4))
	b = appendRecord(b, 4, updDelta(fid("a", 1), map[string]int64{"x": 1}, 1))
	return appendRecord(b, 7, rmDelta(fid("a", 1)))
}

// seedJournal is a valid journal file with base 2 holding seedFrames.
func seedJournal(t testing.TB) []byte {
	t.Helper()
	path := t.TempDir() + "/seed.wal"
	j, err := createJournal(faultfs.OS, path, 2, seedFrames(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	b, err := faultfs.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzParseTailFrames: the replica-side frame decoder never panics or
// returns an untyped error, and whatever it accepts is a strictly
// epoch-ordered record run that re-encodes and re-parses to the same
// records — and that the leader's verbatim scanner ships byte for byte.
func FuzzParseTailFrames(f *testing.F) {
	f.Add(seedFrames())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := ParseTailFrames(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var re []byte
		for i, r := range recs {
			if i > 0 && r.Epoch <= recs[i-1].Epoch {
				t.Fatalf("accepted non-monotonic epochs %d, %d", recs[i-1].Epoch, r.Epoch)
			}
			re = appendRecord(re, r.Epoch, r.Delta)
		}
		again, err := ParseTailFrames(re)
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encoded records do not round-trip: %v", err)
		}
		if len(recs) == 0 || recs[0].Epoch == 0 {
			return
		}
		var c TailChunk
		if err := c.add(b, 0, math.MaxInt); err != nil || c.Records != len(recs) || !bytes.Equal(c.Frames, b) {
			t.Fatalf("scanner disagrees with ParseTailFrames: %d records, %v", c.Records, err)
		}
	})
}

// FuzzJournalScan: the tail's verbatim journal scanner against
// parseJournal, the recovery decoder, on the same bytes — and so
// checkDelta against decodeDelta. Both accept or both reject a whole
// journal; on acceptance the scanner ships every record byte for byte
// and, from any cursor and budget, exactly the records past the cursor
// that fit.
func FuzzJournalScan(f *testing.F) {
	f.Add(seedJournal(f), uint64(3), uint16(0))
	f.Add(seedJournal(f), uint64(0), uint16(1))
	f.Fuzz(func(t *testing.T, b []byte, from uint64, budget uint16) {
		scan, perr := parseJournal(b, "fuzz", false)
		var all TailChunk
		serr := all.addJournal(b, "fuzz", math.MaxInt)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("parseJournal err %v, scanner err %v", perr, serr)
		}
		if perr != nil {
			return
		}
		if all.Records != len(scan.records) || !bytes.Equal(all.Frames, b[walHeaderSize:]) {
			t.Fatalf("scanner shipped %d records / %d B, journal holds %d / %d B",
				all.Records, len(all.Frames), len(scan.records), len(b)-walHeaderSize)
		}

		// From a cursor, under a budget: the frames of exactly the records
		// past the cursor that fit, as the journal holds them.
		c := TailChunk{Next: from}
		if err := c.addJournal(b, "fuzz", int(budget)); err != nil {
			t.Fatalf("cursor %d: scanner rejected a valid journal: %v", from, err)
		}
		want := TailChunk{Next: from}
		for k, r := range scan.records {
			if r.epoch <= from {
				continue
			}
			if want.full(int(budget)) {
				break
			}
			end := int64(len(b))
			if k+1 < len(scan.records) {
				end = scan.records[k+1].off
			}
			want.Frames = append(want.Frames, b[r.off:end]...)
			want.Records++
			want.Next = r.epoch
		}
		if c.Records != want.Records || c.Next != want.Next || !bytes.Equal(c.Frames, want.Frames) {
			t.Fatalf("cursor %d budget %d: shipped %d records to %d, want %d to %d",
				from, budget, c.Records, c.Next, want.Records, want.Next)
		}
	})
}

// TestDecodeSnapshotTFRange: a posting TF of math.MaxInt32 round-trips
// through the snapshot format, and the tf-overflow seed — a well-formed
// snapshot whose one posting carries a TF of 2³¹, past what a posting
// holds — is ErrCorruptSnapshot, not a truncated TF.
func TestDecodeSnapshotTFRange(t *testing.T) {
	d := smallIndex(t, 1).Dump()
	d.Postings[0][0].TF = math.MaxInt32
	got, err := DecodeSnapshot(encodeSnapshot(t, filepath.Join(t.TempDir(), "max.snap"), d), "max")
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("TF math.MaxInt32 does not round-trip: %v", err)
	}
	seed, err := os.ReadFile("testdata/fuzz/FuzzDecodeSnapshot/tf-overflow")
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(seed)), "\n")
	b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(quoted, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot([]byte(b), "tf-overflow"); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}

// encodeSnapshot writes d to path in the snapshot format and reads the
// bytes back.
func encodeSnapshot(t testing.TB, path string, d *fragindex.Dump) []byte {
	t.Helper()
	if err := writeSnapshot(context.Background(), faultfs.OS, path, d); err != nil {
		t.Fatal(err)
	}
	b, err := faultfs.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeSnapshot: the snapshot decoder behind recovery and replica
// bootstrap never panics, and rejects bytes only with ErrCorruptSnapshot —
// or, for a well-formed header naming another format version, with the
// distinct unsupported-version error. Whatever it accepts is a dump
// Restore accepts, and that encodes back to bytes decoding to the same
// dump.
func FuzzDecodeSnapshot(f *testing.F) {
	dir := f.TempDir()
	f.Add(encodeSnapshot(f, filepath.Join(dir, "seed.snap"), smallIndex(f, 6).Dump()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeSnapshot(b, "fuzz")
		if err != nil {
			otherVersion := len(b) >= snapFixedHeader && string(b[:8]) == snapMagic &&
				binary.LittleEndian.Uint32(b[8:12]) != snapVersion
			if !errors.Is(err, ErrCorruptSnapshot) && !otherVersion {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if _, err := fragindex.Restore(d); err != nil {
			t.Fatalf("decoded a dump Restore rejects: %v", err)
		}
		again, err := DecodeSnapshot(encodeSnapshot(t, filepath.Join(dir, "re.snap"), d), "re-encoded")
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoded dump does not round-trip: %v", err)
		}
	})
}
