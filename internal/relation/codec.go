package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorruptRow is returned when a serialized row cannot be decoded.
var ErrCorruptRow = errors.New("relation: corrupt encoded row")

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice. The format is one kind byte followed by a fixed 8-byte
// payload for numerics or an uvarint-length-prefixed byte string.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i))
		dst = append(dst, buf[:]...)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, ErrCorruptRow
	}
	kind := Kind(b[0])
	switch kind {
	case KindNull:
		return Null(), 1, nil
	case KindInt:
		if len(b) < 9 {
			return Value{}, 0, ErrCorruptRow
		}
		return Int(int64(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case KindFloat:
		if len(b) < 9 {
			return Value{}, 0, ErrCorruptRow
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case KindString:
		n, sz := binary.Uvarint(b[1:])
		if sz <= 0 {
			return Value{}, 0, ErrCorruptRow
		}
		start := 1 + sz
		if n > uint64(len(b)-start) { // compared unsigned: int(n) may be negative
			return Value{}, 0, ErrCorruptRow
		}
		end := start + int(n)
		return String(string(b[start:end])), end, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown kind byte %d", ErrCorruptRow, b[0])
	}
}

// EncodeRow serializes a row. The encoding is self-delimiting: it starts
// with the column count so rows of different widths can share a stream.
func EncodeRow(r Row) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendRow appends the encoding of r to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow deserializes a row produced by EncodeRow, returning the row and
// the number of bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, ErrCorruptRow
	}
	off := sz
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		row = append(row, v)
		off += used
	}
	return row, off, nil
}

// Key renders values as a canonical byte-exact string usable as a map key
// or MapReduce shuffle key. Unlike Text it is unambiguous: values cannot
// collide across kinds or boundaries.
func Key(vals []Value) string {
	var dst []byte
	for _, v := range vals {
		dst = AppendValue(dst, v)
	}
	return string(dst)
}

// DecodeKey parses a string produced by Key back into values.
func DecodeKey(k string) ([]Value, error) {
	b := []byte(k)
	var out []Value
	for len(b) > 0 {
		v, used, err := DecodeValue(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[used:]
	}
	return out, nil
}
