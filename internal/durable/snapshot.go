package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// Snapshot file format (versioned, self-checking):
//
//	magic        [8]byte  "DASHSNP1"
//	version      uint32   little-endian
//	sections     uint32   section count
//	table        sections × { offset uint64, length uint64, crc uint32 }
//	headerCRC    uint32   CRC-32 (IEEE) of everything above
//	section data ...      each section CRC-checked independently
//
// Section 0 is the spec block: selection attributes, epoch, and the chunk
// layout. The remaining sections are fragment-metadata chunks followed by
// posting chunks, so a reader verifies and decodes the file section by
// section and a single flipped bit is pinned to one section's CRC. Writes
// are atomic: everything goes to a temp file that is fsynced, renamed over
// the final name, and sealed with a directory fsync — a crash mid-write
// leaves at worst a stale temp file, never a half-visible snapshot.

const (
	snapMagic   = "DASHSNP1"
	snapVersion = 1

	fragsPerChunk = 4096
	kwsPerChunk   = 1024
	maxSections   = 1 << 20

	snapFixedHeader   = 8 + 4 + 4 // magic + version + section count
	snapTableEntry    = 8 + 8 + 4 // offset + length + crc
	snapHeaderTrailer = 4         // header CRC
)

// Errors the durable layer classifies corruption with. Both wrap into
// recovery decisions: a corrupt snapshot falls back to the previous
// generation, a corrupt journal (beyond a torn tail) refuses recovery.
var (
	ErrCorruptSnapshot = errors.New("durable: corrupt snapshot")
	ErrCorruptJournal  = errors.New("durable: corrupt journal")
)

type sectionEntry struct {
	off uint64
	len uint64
	crc uint32
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable — the rename itself lives in the directory, not the file.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		//lint:ignore droppederr already failing: the directory-sync error is returned; close is best-effort fd cleanup
		d.Close()
		return err
	}
	return d.Close()
}

// WriteSnapshot atomically writes a dump to path in the versioned section
// format. On any error the target is untouched (at worst a temp file
// remains, which recovery sweeps). The ctx is honored before the write
// starts; once the temp file is being filled the write runs to completion
// so the atomic rename stays all-or-nothing.
func WriteSnapshot(ctx context.Context, path string, d *fragindex.Dump) error {
	return writeSnapshot(ctx, faultfs.OS, path, d)
}

// writeSnapshot is WriteSnapshot through an explicit filesystem seam —
// the store threads its own (possibly fault-injected) FS here.
func writeSnapshot(ctx context.Context, fsys faultfs.FS, path string, d *fragindex.Dump) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	fragChunks := (len(d.FragKeys) + fragsPerChunk - 1) / fragsPerChunk
	postChunks := (len(d.Keywords) + kwsPerChunk - 1) / kwsPerChunk
	count := 1 + fragChunks + postChunks
	headerSize := snapFixedHeader + count*snapTableEntry + snapHeaderTrailer

	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			//lint:ignore droppederr already failing: the write error is returned; close+remove are best-effort temp cleanup (recovery resweeps)
			f.Close()
			//lint:ignore droppederr same: a surviving temp file is swept by the next recovery
			fsys.Remove(tmp)
		}
	}()

	// Placeholder header; patched once section offsets are known.
	if _, err = f.Write(make([]byte, headerSize)); err != nil {
		return err
	}
	table := make([]sectionEntry, 0, count)
	off := uint64(headerSize)
	writeSection := func(payload []byte) error {
		crashPoint("snapshot.section")
		if _, werr := f.Write(payload); werr != nil {
			return werr
		}
		table = append(table, sectionEntry{
			off: off, len: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload),
		})
		off += uint64(len(payload))
		return nil
	}

	// Section 0: spec + layout.
	spec := appendStrings(nil, d.SelAttrs)
	spec = appendStrings(spec, d.EqAttrs)
	spec = appendString(spec, d.RangeAttr)
	spec = binary.AppendUvarint(spec, d.Epoch)
	spec = binary.AppendUvarint(spec, uint64(len(d.FragKeys)))
	spec = binary.AppendUvarint(spec, uint64(fragChunks))
	spec = binary.AppendUvarint(spec, uint64(len(d.Keywords)))
	spec = binary.AppendUvarint(spec, uint64(postChunks))
	if err = writeSection(spec); err != nil {
		return err
	}

	for lo := 0; lo < len(d.FragKeys); lo += fragsPerChunk {
		hi := min(lo+fragsPerChunk, len(d.FragKeys))
		chunk := binary.AppendUvarint(nil, uint64(hi-lo))
		for i := lo; i < hi; i++ {
			chunk = appendString(chunk, d.FragKeys[i])
			chunk = binary.AppendUvarint(chunk, uint64(d.Terms[i]))
		}
		if err = writeSection(chunk); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(d.Keywords); lo += kwsPerChunk {
		hi := min(lo+kwsPerChunk, len(d.Keywords))
		chunk := binary.AppendUvarint(nil, uint64(hi-lo))
		for i := lo; i < hi; i++ {
			chunk = appendString(chunk, d.Keywords[i])
			chunk = binary.AppendUvarint(chunk, uint64(len(d.Postings[i])))
			for _, p := range d.Postings[i] {
				chunk = binary.AppendUvarint(chunk, uint64(p.Frag))
				chunk = binary.AppendUvarint(chunk, uint64(p.TF))
			}
		}
		if err = writeSection(chunk); err != nil {
			return err
		}
	}

	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(count))
	for _, e := range table {
		hdr = binary.LittleEndian.AppendUint64(hdr, e.off)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.len)
		hdr = binary.LittleEndian.AppendUint32(hdr, e.crc)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err = f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	crashPoint("snapshot.before-rename")
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	crashPoint("snapshot.after-rename")
	return syncDir(fsys, filepath.Dir(path))
}

// ReadSnapshot reads and fully verifies a snapshot file, returning the
// decoded dump. Every failure — bad magic, version, header CRC, section
// CRC, or malformed section payload — wraps ErrCorruptSnapshot so callers
// can fall back to an older generation.
func ReadSnapshot(ctx context.Context, path string) (*fragindex.Dump, error) {
	return readSnapshot(ctx, faultfs.OS, path)
}

// readSnapshot is ReadSnapshot through an explicit filesystem seam.
func readSnapshot(ctx context.Context, fsys faultfs.FS, path string) (*fragindex.Dump, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(b, filepath.Base(path))
}

// DecodeSnapshot verifies and decodes snapshot bytes already in memory —
// the same full verification ReadSnapshot performs (magic, version, header
// CRC, per-section CRCs, payload shape, and posting refs and TFs in the
// range a fragindex.Posting holds). Replicas use it on snapshot bytes
// fetched over the replication transport, so a bit flipped in transit is
// caught exactly like one flipped on disk. name labels errors.
func DecodeSnapshot(b []byte, name string) (*fragindex.Dump, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, name, fmt.Sprintf(format, args...))
	}
	if len(b) < snapFixedHeader {
		return nil, corrupt("file shorter than header")
	}
	if string(b[:8]) != snapMagic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != snapVersion {
		return nil, fmt.Errorf("durable: snapshot %s: unsupported format version %d", name, v)
	}
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	if count < 1 || count > maxSections {
		return nil, corrupt("implausible section count %d", count)
	}
	headerSize := snapFixedHeader + count*snapTableEntry + snapHeaderTrailer
	if len(b) < headerSize {
		return nil, corrupt("file shorter than section table")
	}
	if got, want := crc32.ChecksumIEEE(b[:headerSize-4]), binary.LittleEndian.Uint32(b[headerSize-4:headerSize]); got != want {
		return nil, corrupt("header checksum mismatch")
	}
	sections := make([][]byte, count)
	for i := 0; i < count; i++ {
		at := snapFixedHeader + i*snapTableEntry
		e := sectionEntry{
			off: binary.LittleEndian.Uint64(b[at:]),
			len: binary.LittleEndian.Uint64(b[at+8:]),
			crc: binary.LittleEndian.Uint32(b[at+16:]),
		}
		if e.off < uint64(headerSize) || e.off+e.len < e.off || e.off+e.len > uint64(len(b)) {
			return nil, corrupt("section %d outside file bounds", i)
		}
		payload := b[e.off : e.off+e.len]
		if crc32.ChecksumIEEE(payload) != e.crc {
			return nil, corrupt("section %d checksum mismatch", i)
		}
		sections[i] = payload
	}

	sd := &decoder{b: sections[0]}
	d := &fragindex.Dump{
		SelAttrs:  sd.strings(),
		EqAttrs:   sd.strings(),
		RangeAttr: sd.str(),
		Epoch:     sd.uvarint(),
	}
	numFrags := sd.uvarint()
	fragChunks := sd.uvarint()
	numKws := sd.uvarint()
	postChunks := sd.uvarint()
	if sd.err != nil || !sd.done() {
		return nil, corrupt("malformed spec section")
	}
	if uint64(count) != 1+fragChunks+postChunks {
		return nil, corrupt("section count disagrees with layout")
	}
	if numFrags > uint64(len(b)) || numKws > uint64(len(b)) {
		return nil, corrupt("implausible entry counts")
	}

	d.FragKeys = make([]string, 0, numFrags)
	d.Terms = make([]int64, 0, numFrags)
	for c := uint64(0); c < fragChunks; c++ {
		cd := &decoder{b: sections[1+c]}
		n := cd.uvarint()
		if cd.err == nil && n > uint64(len(cd.b))+1 {
			cd.fail()
		}
		for i := uint64(0); i < n && cd.err == nil; i++ {
			d.FragKeys = append(d.FragKeys, cd.str())
			d.Terms = append(d.Terms, int64(cd.uvarint()))
		}
		if cd.err != nil || !cd.done() {
			return nil, corrupt("malformed fragment chunk %d", c)
		}
	}
	if uint64(len(d.FragKeys)) != numFrags {
		return nil, corrupt("fragment count disagrees with spec")
	}

	d.Keywords = make([]string, 0, numKws)
	d.Postings = make([][]fragindex.Posting, 0, numKws)
	for c := uint64(0); c < postChunks; c++ {
		cd := &decoder{b: sections[1+fragChunks+c]}
		n := cd.uvarint()
		if cd.err == nil && n > uint64(len(cd.b))+1 {
			cd.fail()
		}
		for i := uint64(0); i < n && cd.err == nil; i++ {
			kw := cd.str()
			np := cd.uvarint()
			if cd.err != nil || np > uint64(len(cd.b))+1 {
				cd.fail()
				break
			}
			ps := make([]fragindex.Posting, 0, np)
			for j := uint64(0); j < np && cd.err == nil; j++ {
				ref := cd.uvarint()
				tf := cd.uvarint()
				if cd.err == nil {
					if ref >= numFrags {
						return nil, corrupt("posting ref %d out of range in %q", ref, kw)
					}
					if tf > math.MaxInt32 {
						return nil, corrupt("posting TF %d out of range in %q", tf, kw)
					}
					ps = append(ps, fragindex.Posting{Frag: fragindex.FragRef(ref), TF: int32(tf)})
				}
			}
			if cd.err != nil {
				break
			}
			d.Keywords = append(d.Keywords, kw)
			d.Postings = append(d.Postings, ps)
		}
		if cd.err != nil || !cd.done() {
			return nil, corrupt("malformed posting chunk %d", c)
		}
	}
	if uint64(len(d.Keywords)) != numKws {
		return nil, corrupt("keyword count disagrees with spec")
	}
	return d, nil
}
