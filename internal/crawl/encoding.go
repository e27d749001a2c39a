package crawl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/relation"
)

// Key prefixes distinguish record classes that flow through the same MR
// jobs. Keyword keys and fragment-size keys share the final job's shuffle;
// join inputs carry a side tag in the value.
const (
	keywordKeyPrefix = "k" // key = "k"+keyword, value = posting(s)
	sizeKeyPrefix    = "s" // key = "s"+fragKey, value = uvarint term count
	// nullJoinKeyPrefix marks left-side rows whose join key contains
	// NULL: they must never match, so they shuffle under a private key.
	nullJoinKeyPrefix = "\x00unmatched\x00"

	tagLeft  byte = 'L'
	tagRight byte = 'R'
)

// ErrCorruptPosting is returned when a serialized posting cannot be decoded.
var ErrCorruptPosting = errors.New("crawl: corrupt posting encoding")

// appendPosting encodes one (fragment, tf) posting.
func appendPosting(dst []byte, fragKey string, tf int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(tf))
	dst = binary.AppendUvarint(dst, uint64(len(fragKey)))
	return append(dst, fragKey...)
}

// decodePostings decodes a concatenation of postings, calling fn on each in
// order; fragKey aliases b. Only the canonical encoding, minimal varints as
// appendPosting writes them, is accepted.
func decodePostings(b []byte, fn func(fragKey []byte, tf int64)) error {
	for len(b) > 0 {
		tf, n := binary.Uvarint(b)
		if n <= 0 || n > 1 && b[n-1] == 0 {
			return ErrCorruptPosting
		}
		b = b[n:]
		l, n := binary.Uvarint(b)
		if n <= 0 || n > 1 && b[n-1] == 0 || l > uint64(len(b)-n) {
			return ErrCorruptPosting
		}
		b = b[n:]
		fn(b[:l], int64(tf))
		b = b[l:]
	}
	return nil
}

// tableToKVs encodes a table's rows as untagged MR input pairs.
func tableToKVs(t *relation.Table) []mapreduce.KV {
	kvs := make([]mapreduce.KV, len(t.Rows))
	for i, r := range t.Rows {
		kvs[i] = mapreduce.KV{Value: relation.EncodeRow(r)}
	}
	return kvs
}

// tagValues prefixes every pair's value with a side tag for join jobs.
func tagValues(kvs []mapreduce.KV, tag byte) []mapreduce.KV {
	out := make([]mapreduce.KV, len(kvs))
	for i, kv := range kvs {
		v := make([]byte, 0, len(kv.Value)+1)
		v = append(v, tag)
		v = append(v, kv.Value...)
		out[i] = mapreduce.KV{Key: kv.Key, Value: v}
	}
	return out
}

// columnIndices resolves column positions in a schema, failing loudly if a
// column is missing (which would be a binder bug, not user error).
func columnIndices(schema *relation.Schema, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := schema.ColumnIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("crawl: internal: column %s missing from %s", c, schema.Name)
		}
		idx[i] = j
	}
	return idx, nil
}

// joinKeyFor extracts the shuffle key for a row's join columns. ok is false
// if any join column is NULL (NULL never matches in an equi-join).
func joinKeyFor(row relation.Row, idx []int, buf []relation.Value) (key string, ok bool) {
	for i, j := range idx {
		if row[j].IsNull() {
			return "", false
		}
		buf[i] = row[j]
	}
	return relation.Key(buf), true
}

// assembleOutput converts the final indexing job's output pairs into the
// crawl Output maps. Both algorithms' last jobs emit the same format:
// "k"+keyword -> posting list in any order, "s"+fragKey -> uvarint total
// terms; the lists are sorted here, once.
func assembleOutput(alg Algorithm, selAttrs []string, kvs []mapreduce.KV, phases []Phase) (*Output, error) {
	out := &Output{
		Algorithm:     alg,
		SelAttrs:      append([]string(nil), selAttrs...),
		FragmentTerms: make(map[string]int64),
		Inverted:      make(map[string][]Posting),
		Phases:        phases,
	}
	for _, kv := range kvs {
		switch {
		case len(kv.Key) > 0 && kv.Key[0] == keywordKeyPrefix[0]:
			var ps []Posting
			if err := decodePostings(kv.Value, func(fragKey []byte, tf int64) {
				ps = append(ps, Posting{FragKey: string(fragKey), TF: tf})
			}); err != nil {
				return nil, err
			}
			out.Inverted[kv.Key[1:]] = ps
		case len(kv.Key) > 0 && kv.Key[0] == sizeKeyPrefix[0]:
			n, used := binary.Uvarint(kv.Value)
			if used <= 0 {
				return nil, fmt.Errorf("%w: size entry", ErrCorruptPosting)
			}
			out.FragmentTerms[kv.Key[1:]] += int64(n)
		default:
			return nil, fmt.Errorf("crawl: internal: unexpected output key %q", kv.Key)
		}
	}
	if err := sortInverted(out); err != nil {
		return nil, err
	}
	return out, nil
}
