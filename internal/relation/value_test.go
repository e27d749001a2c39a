package relation

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := Int(42); got.Kind() != KindInt || got.AsInt() != 42 {
		t.Errorf("Int(42) = %v", got)
	}
	if got := Float(2.5); got.Kind() != KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", got)
	}
	if got := String("hi"); got.Kind() != KindString || got.AsString() != "hi" {
		t.Errorf("String(hi) = %v", got)
	}
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not NULL")
	}
}

func TestValueText(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(10), "10"},
		{Int(-3), "-3"},
		{Float(4.3), "4.3"},
		{Float(12), "12"},
		{String("Burger Queen"), "Burger Queen"},
		{Null(), ""},
	}
	for _, tc := range tests {
		if got := tc.v.Text(); got != tc.want {
			t.Errorf("Text(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("Null().String() = %q, want NULL", got)
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{String("a"), String("b"), -1},
		{String("a"), String("a"), 0},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(math.MaxInt64), String(""), -1}, // numerics sort before strings
		{String("z"), Float(1e18), 1},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Compare(tc.a); got != -tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

func TestLargeIntCompareExact(t *testing.T) {
	// Two large ints differing by 1 are distinguishable even where float64
	// would round them together.
	a, b := Int(math.MaxInt64-1), Int(math.MaxInt64)
	if got := a.Compare(b); got != -1 {
		t.Errorf("Compare(maxint-1, maxint) = %d, want -1", got)
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("15", KindInt)
	if err != nil || !v.Equal(Int(15)) {
		t.Errorf("ParseAs(15,int) = %v, %v", v, err)
	}
	v, err = ParseAs("4.3", KindFloat)
	if err != nil || !v.Equal(Float(4.3)) {
		t.Errorf("ParseAs(4.3,float) = %v, %v", v, err)
	}
	v, err = ParseAs("Thai", KindString)
	if err != nil || !v.Equal(String("Thai")) {
		t.Errorf("ParseAs(Thai,string) = %v, %v", v, err)
	}
	if _, err = ParseAs("xyz", KindInt); err == nil {
		t.Error("ParseAs(xyz,int) should fail")
	}
	if _, err = ParseAs("xyz", KindFloat); err == nil {
		t.Error("ParseAs(xyz,float) should fail")
	}
}

// randomValue produces an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63n(1000) - 500)
	case 2:
		return Float(float64(r.Int63n(10000))/100 - 50)
	default:
		letters := []byte("abcdefg hij")
		n := r.Intn(8)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = letters[r.Intn(len(letters))]
		}
		return String(string(buf))
	}
}

func randomRow(r *rand.Rand, n int) Row {
	row := make(Row, n)
	for i := range row {
		row[i] = randomValue(r)
	}
	return row
}

func TestPropValueCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		enc := AppendValue(nil, v)
		dec, n, err := DecodeValue(enc)
		return err == nil && n == len(enc) && dec.Compare(v) == 0 && dec.Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropRowCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := randomRow(r, r.Intn(6))
		enc := EncodeRow(row)
		dec, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) || len(dec) != len(row) {
			return false
		}
		return CompareRows(dec, row) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropKeyInjective(t *testing.T) {
	// Distinct rows must yield distinct keys; equal rows equal keys.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRow(r, 3)
		b := randomRow(r, 3)
		ka, kb := Key(a), Key(b)
		if CompareRows(a, b) == 0 {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeKeyRoundTrip(t *testing.T) {
	vals := []Value{Int(7), String("American"), Float(4.5), Null()}
	got, err := DecodeKey(Key(vals))
	if err != nil {
		t.Fatalf("DecodeKey: %v", err)
	}
	if !reflect.DeepEqual(len(got), len(vals)) {
		t.Fatalf("DecodeKey len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i].Compare(vals[i]) != 0 {
			t.Errorf("DecodeKey[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestPropCompareIsTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Transitivity (a<=b<=c => a<=c).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		// Reflexivity.
		return a.Compare(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("DecodeValue(nil) should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("short int should fail")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Error("empty row should fail")
	}
	if _, err := DecodeKey(string([]byte{byte(KindString), 200})); err == nil {
		t.Error("truncated string should fail")
	}
	// A string length of 2⁶³ overflows int: 12 bytes that once panicked
	// slicing instead of failing.
	huge := append(binary.AppendUvarint([]byte{byte(KindString)}, 1<<63), 'x')
	if _, _, err := DecodeValue(huge); !errors.Is(err, ErrCorruptRow) {
		t.Errorf("string length 2^63 in %d bytes: err = %v, want ErrCorruptRow", len(huge), err)
	}
}

// sameValue reports whether a and b are the same value of the same kind,
// a float bit for bit (so NaN equals itself).
func sameValue(a, b Value) bool {
	if a.Kind() == KindFloat && b.Kind() == KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Kind() == b.Kind() && a.Compare(b) == 0
}

// FuzzDecodeValue: decoding never panics, consumes no more than it is
// given, and whatever value it accepts encodes to bytes that decode back
// to that value, consuming all of them.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Null(), Int(-7), Float(math.NaN()), String(""), String("American")} {
		f.Add(AppendValue(nil, v))
	}
	f.Add(append(binary.AppendUvarint([]byte{byte(KindString)}, 1<<63), 'x'))
	f.Add([]byte{byte(KindString), 0x80, 0x00}) // a non-minimal length
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodeValue(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("DecodeValue(%x) consumed %d bytes", b, n)
		}
		enc := AppendValue(nil, v)
		again, m, err := DecodeValue(enc)
		if err != nil || m != len(enc) || !sameValue(again, v) {
			t.Fatalf("%v from %x re-encodes to %x, which decodes to %v, %d, %v", v, b, enc, again, m, err)
		}
	})
}
