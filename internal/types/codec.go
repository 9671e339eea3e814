package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Value codec: the one binary layout of a Value, used wherever values
// leave memory — spill files (encoding.RowWriter), shard RPC row blocks,
// gob-shipped AST literals (gob.go), encoder dictionaries, table
// metadata and Spark's fetch stream.
//
// Layout per value:
//
//	byte             tag = kind | 0x80 if NULL (TagExt = 0x40 reserved)
//	varint           KindBool/KindInt/KindDate/KindTimestamp payload
//	8 bytes LE       KindFloat bits (NaN payloads round-trip exactly)
//	uvarint + bytes  KindString payload
//
// NULLs carry their kind, so a typed NULL survives the round trip. A row
// is a uvarint column count followed by its values.
//
// Decoding is bounds-checked: every count and length is checked against
// the remaining input before anything is allocated, so hostile bytes
// (the shard wire, a damaged file-set) cannot demand more memory than
// their own size.

// Tag bits above the kind.
const (
	// tagNull marks a NULL of the tag's kind.
	tagNull = 0x80
	// TagExt is reserved for caller extensions (shard row blocks use it
	// for per-block string dictionary codes); DecodeValue rejects it.
	TagExt = 0x40
)

// errTruncated reports input that ends inside a value.
var errTruncated = errors.New("types: value codec: truncated input")

// AppendValue appends v's encoding to dst.
func AppendValue(dst []byte, v Value) []byte {
	if v.IsNull() {
		return append(dst, byte(v.kind)|tagNull)
	}
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	default: // KindBool, KindInt, KindDate, KindTimestamp
		return binary.AppendVarint(dst, v.i)
	}
}

// AppendRow appends r's encoding (column count, then each value) to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeValue decodes one value from the front of b and returns it with
// the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, errTruncated
	}
	tag := b[0]
	kind := Kind(tag &^ tagNull)
	if kind > KindTimestamp || (kind == KindNull && tag&tagNull == 0) {
		return Value{}, 0, fmt.Errorf("types: value codec: bad tag %#x", tag)
	}
	if tag&tagNull != 0 {
		return NullOf(kind), 1, nil
	}
	switch kind {
	case KindFloat:
		if len(b) < 9 {
			return Value{}, 0, errTruncated
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case KindString:
		ln, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return Value{}, 0, errTruncated
		}
		start := 1 + n
		if ln > uint64(len(b)-start) {
			return Value{}, 0, fmt.Errorf("types: value codec: string of %d bytes, %d left", ln, len(b)-start)
		}
		end := start + int(ln)
		return NewString(string(b[start:end])), end, nil
	default:
		x, n := binary.Varint(b[1:])
		if n <= 0 {
			return Value{}, 0, errTruncated
		}
		if kind == KindBool {
			return NewBool(x != 0), 1 + n, nil
		}
		return Value{kind: kind, i: x}, 1 + n, nil
	}
}

// DecodeRow decodes one row from the front of b and returns it with the
// number of bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	cols, pos := binary.Uvarint(b)
	if pos <= 0 {
		return nil, 0, errTruncated
	}
	// Every value takes at least one byte.
	if cols > uint64(len(b)-pos) {
		return nil, 0, fmt.Errorf("types: value codec: %d columns, %d bytes left", cols, len(b)-pos)
	}
	row := make(Row, cols)
	for i := range row {
		v, n, err := DecodeValue(b[pos:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		pos += n
	}
	return row, pos, nil
}
