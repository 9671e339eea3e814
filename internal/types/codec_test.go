package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// sameValue reports whether two values are identical down to the float
// bits (NaN payloads and the sign of zero included).
func sameValue(a, b Value) bool {
	if a.Kind() != b.Kind() || a.IsNull() != b.IsNull() {
		return false
	}
	if a.IsNull() {
		return true
	}
	if a.Kind() == KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Int() == b.Int() && a.Str() == b.Str()
}

func codecCases() []Value {
	vals := []Value{
		Null,
		NewBool(true), NewBool(false),
		NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff0000000000001)), NewFloat(math.Float64frombits(0xfff8dead0000beef)),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(-math.MaxFloat64),
		NewString(""), NewString("日本語 ♥"), NewString(strings.Repeat("x", 1<<20)),
		NewDate(0), NewDate(-719162), NewTimestamp(math.MinInt64), NewTimestamp(1700000000000000),
	}
	for k := KindBool; k <= KindTimestamp; k++ {
		vals = append(vals, NullOf(k))
	}
	return vals
}

func TestValueCodecRoundTrip(t *testing.T) {
	for _, v := range codecCases() {
		b := AppendValue([]byte{0xAA}, v)[1:] // appends after existing bytes
		got, n, err := DecodeValue(b)
		if err != nil || n != len(b) {
			t.Fatalf("%v %v: decode n=%d of %d, err %v", v.Kind(), v, n, len(b), err)
		}
		if !sameValue(got, v) {
			t.Fatalf("%v: round trip gave %v (%v, null=%v)", v, got, got.Kind(), got.IsNull())
		}
	}
	row := Row(codecCases())
	b := AppendRow(nil, row)
	got, n, err := DecodeRow(b)
	if err != nil || n != len(b) || len(got) != len(row) {
		t.Fatalf("row: n=%d of %d, %d cols, err %v", n, len(b), len(got), err)
	}
	for i := range row {
		if !sameValue(got[i], row[i]) {
			t.Fatalf("row col %d: %v, want %v", i, got[i], row[i])
		}
	}
	if got, _, err := DecodeRow(AppendRow(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty row: %v %v", got, err)
	}
}

// TestValueCodecTruncation cuts an encoded row at every byte offset:
// each prefix must fail cleanly, never panic or succeed.
func TestValueCodecTruncation(t *testing.T) {
	var row Row
	for _, v := range codecCases() {
		if v.Kind() == KindString && len(v.Str()) > 64 {
			continue // keep the quadratic loop small
		}
		row = append(row, v)
	}
	b := AppendRow(nil, row)
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := DecodeRow(b[:cut]); err == nil {
			t.Fatalf("row cut at %d of %d bytes decoded without error", cut, len(b))
		}
	}
	for _, v := range row {
		vb := AppendValue(nil, v)
		for cut := 0; cut < len(vb); cut++ {
			if _, _, err := DecodeValue(vb[:cut]); err == nil {
				t.Fatalf("%v cut at %d of %d bytes decoded without error", v, cut, len(vb))
			}
		}
	}
}

// TestValueCodecRejectsOversizedLengths: a length or count larger than
// the remaining input is refused before anything that size is allocated.
func TestValueCodecRejectsOversizedLengths(t *testing.T) {
	str := binary.AppendUvarint(nil, 1) // one column: a string claiming 1 TB
	str = append(str, byte(KindString))
	str = binary.AppendUvarint(str, 1<<40)
	str = append(str, "short"...)
	cols := binary.AppendUvarint(nil, 1<<40) // 1T columns, one present
	cols = append(cols, byte(KindInt), 2)
	for name, b := range map[string][]byte{"string length": str, "column count": cols} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeRow(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: oversized prefix decoded without error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: decoder allocated %d bytes before refusing", name, grew)
		}
	}
}

func TestValueCodecRejectsBadTags(t *testing.T) {
	for _, tag := range []byte{byte(KindNull), byte(KindTimestamp) + 1, TagExt | byte(KindString), 0x7F, 0xFF} {
		if _, _, err := DecodeValue([]byte{tag, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
			t.Fatalf("tag %#x decoded without error", tag)
		}
	}
}

func TestGobWrappersUseCodec(t *testing.T) {
	for _, v := range codecCases() {
		b, err := v.GobEncode()
		if err != nil || !bytes.Equal(b, AppendValue(nil, v)) {
			t.Fatalf("%v: GobEncode differs from AppendValue (err %v)", v, err)
		}
		var got Value
		if err := got.GobDecode(b); err != nil || !sameValue(got, v) {
			t.Fatalf("%v: GobDecode gave %v, err %v", v, got, err)
		}
		if err := got.GobDecode(append(b, 0)); err == nil {
			t.Fatalf("%v: trailing byte accepted", v)
		}
	}
}

// FuzzValueCodec decodes arbitrary bytes as a value and as a row; what
// decodes must re-encode to bytes that decode to the identical value
// and re-encode unchanged.
func FuzzValueCodec(f *testing.F) {
	for _, v := range codecCases() {
		if v.Kind() == KindString && len(v.Str()) > 64 {
			continue
		}
		f.Add(AppendValue(nil, v))
	}
	f.Add(AppendRow(nil, Row{NewInt(1), NewString("a"), NullOf(KindFloat)}))
	f.Add([]byte{byte(KindBool), 4})               // non-canonical bool payload
	f.Add([]byte{byte(KindInt), 0x80, 0x80, 0x00}) // overlong varint
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, n, err := DecodeValue(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			enc := AppendValue(nil, v)
			v2, n2, err := DecodeValue(enc)
			if err != nil || n2 != len(enc) || !sameValue(v, v2) {
				t.Fatalf("re-decode of %x: %v n=%d err %v, want %v", enc, v2, n2, err, v)
			}
			if again := AppendValue(nil, v2); !bytes.Equal(again, enc) {
				t.Fatalf("re-encode unstable: %x then %x", enc, again)
			}
		}
		if r, n, err := DecodeRow(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("row consumed %d of %d bytes", n, len(data))
			}
			enc := AppendRow(nil, r)
			r2, n2, err := DecodeRow(enc)
			if err != nil || n2 != len(enc) || len(r2) != len(r) {
				t.Fatalf("row re-decode of %x: n=%d err %v", enc, n2, err)
			}
			for i := range r {
				if !sameValue(r[i], r2[i]) {
					t.Fatalf("row col %d: %v then %v", i, r[i], r2[i])
				}
			}
			if again := AppendRow(nil, r2); !bytes.Equal(again, enc) {
				t.Fatalf("row re-encode unstable: %x then %x", enc, again)
			}
		}
	})
}
