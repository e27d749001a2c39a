package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/crawl"
	"repro/internal/fragment"
)

// The on-disk encodings below follow the crawl package's uvarint idiom:
// length-prefixed strings and uvarint integers, concatenated with no
// framing — framing (lengths, CRCs) belongs to the snapshot sections and
// journal records that carry these payloads.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// decoder walks a payload, turning any overrun or malformed varint into an
// error instead of a panic — corrupt bytes must fail loudly, not crash.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed payload")
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) > 0 && d.b[0] < 0x80 {
		// One-byte fast path: string lengths and counts are mostly < 128.
		v := uint64(d.b[0])
		d.b = d.b[1:]
		return v
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// raw consumes one length-prefixed string without copying it.
func (d *decoder) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) str() string { return string(d.raw()) }

func (d *decoder) strings() []string {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		// Empty decodes to nil, matching the canonical in-memory form
		// (Dump and Delta never hold empty non-nil slices).
		return nil
	}
	// A corrupt count must not size an allocation; each element consumes at
	// least one byte, so the payload length bounds any honest count.
	if n > uint64(len(d.b))+1 {
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) done() bool { return d.err == nil && len(d.b) == 0 }

// appendDelta encodes a coalesced delta for the journal. Term-count maps
// are written in sorted keyword order so identical deltas encode to
// identical bytes — corruption tests and byte-level comparisons depend on
// deterministic output.
func appendDelta(dst []byte, del crawl.Delta) []byte {
	dst = appendStrings(dst, del.SelAttrs)
	dst = binary.AppendUvarint(dst, uint64(len(del.Changes)))
	for _, ch := range del.Changes {
		dst = append(dst, byte(ch.Op))
		dst = appendString(dst, ch.ID.Key())
		dst = binary.AppendUvarint(dst, uint64(ch.TotalTerms))
		kws := make([]string, 0, len(ch.TermCounts))
		for kw := range ch.TermCounts {
			kws = append(kws, kw)
		}
		sort.Strings(kws)
		dst = binary.AppendUvarint(dst, uint64(len(kws)))
		for _, kw := range kws {
			dst = appendString(dst, kw)
			dst = binary.AppendUvarint(dst, uint64(ch.TermCounts[kw]))
		}
	}
	return dst
}

// decodeDelta decodes a journal delta payload, validating structure (ops,
// identifier keys, insert and update totals in 0…math.MaxInt32, exact
// consumption) but not index semantics — replay against the index is the
// semantic check. A removal's total is carried as written and never read.
func decodeDelta(b []byte) (crawl.Delta, error) { return walkDelta(b, true) }

// checkDelta runs every check decodeDelta runs without materializing the
// delta's term-count maps and keyword strings — the decode check on
// records the tail ships verbatim.
func checkDelta(b []byte) error {
	_, err := walkDelta(b, false)
	return err
}

// walkDelta parses a delta payload, building it only when keep is set.
func walkDelta(b []byte, keep bool) (crawl.Delta, error) {
	d := &decoder{b: b}
	var del crawl.Delta
	del.SelAttrs = d.strings()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b))+1 {
		d.fail()
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		if len(d.b) == 0 {
			d.fail()
			break
		}
		op := crawl.ChangeOp(d.b[0])
		d.b = d.b[1:]
		if op != crawl.OpInsertFragment && op != crawl.OpRemoveFragment && op != crawl.OpUpdateFragment {
			return crawl.Delta{}, fmt.Errorf("unknown delta op %d", op)
		}
		key := d.str()
		total := d.uvarint()
		nkw := d.uvarint()
		if d.err != nil {
			break
		}
		if total > math.MaxInt32 && op != crawl.OpRemoveFragment {
			return crawl.Delta{}, fmt.Errorf("total term count %d out of range", total)
		}
		if nkw > uint64(len(d.b))+1 {
			d.fail()
			break
		}
		var counts map[string]int64
		if keep && nkw > 0 {
			counts = make(map[string]int64, nkw)
		}
		for j := uint64(0); j < nkw && d.err == nil; j++ {
			kw := d.raw()
			tf := d.uvarint()
			if keep && d.err == nil {
				counts[string(kw)] = int64(tf)
			}
		}
		if d.err != nil {
			break
		}
		id, err := fragment.ParseID(key)
		if err != nil {
			return crawl.Delta{}, fmt.Errorf("bad fragment key: %v", err)
		}
		if keep {
			del.Changes = append(del.Changes, crawl.FragmentChange{
				Op: op, ID: id, TermCounts: counts, TotalTerms: int64(total),
			})
		}
	}
	if d.err != nil {
		return crawl.Delta{}, d.err
	}
	if !d.done() {
		return crawl.Delta{}, fmt.Errorf("trailing bytes after delta")
	}
	return del, nil
}
