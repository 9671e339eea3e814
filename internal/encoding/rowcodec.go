// Row spill codec: the record framing used by the memory governor's
// spill paths (external sort runs, Grace join partitions, aggregate run
// files). Each row is one record:
//
//	uvarint  record length in bytes
//	bytes    types.AppendRow encoding of the row
//
// The row itself uses the shared value layout in internal/types
// (codec.go): a one-byte kind/null tag per value, varint integers, raw
// 8-byte float bits (NaN round-trips exactly) and length-prefixed
// strings; NULLs carry their kind.
//
// Compressed execution (DESIGN.md §11) stores dictionary-code key cells
// as plain KindInt values, so code-carrying group and join state spills
// through this codec unchanged — a deliberate policy: codes are varint
// ints here (cheaper than the strings they stand for, which is why the
// HASHHEAP footprint shrinks under compressed flow), and the reader
// cannot tell a code cell from an ordinary int, so operators must
// decode codes back to values before results leave them.
package encoding

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dashdb/internal/types"
)

// RowWriter streams rows into an io.Writer in spill format.
type RowWriter struct {
	w   io.Writer
	row []byte
	buf []byte
}

// NewRowWriter returns a writer that appends rows to w. The caller owns
// buffering; mem.SpillFile already writes through a bufio.Writer.
func NewRowWriter(w io.Writer) *RowWriter {
	return &RowWriter{w: w, row: make([]byte, 0, 256), buf: make([]byte, 0, 256)}
}

// WriteRow appends one row and returns the encoded size in bytes.
func (rw *RowWriter) WriteRow(r types.Row) (int, error) {
	rw.row = types.AppendRow(rw.row[:0], r)
	rw.buf = binary.AppendUvarint(rw.buf[:0], uint64(len(rw.row)))
	rw.buf = append(rw.buf, rw.row...)
	n, err := rw.w.Write(rw.buf)
	if err != nil {
		return n, fmt.Errorf("encoding: spill write: %w", err)
	}
	return n, nil
}

// RowReader streams rows back out of spill format.
type RowReader struct {
	r   *bufio.Reader
	rec []byte
}

// NewRowReader reads rows from r (wrapped in a bufio.Reader unless it
// already is one).
func NewRowReader(r io.Reader) *RowReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &RowReader{r: br}
}

// ReadRow decodes the next row, returning io.EOF cleanly at end of stream.
func (rr *RowReader) ReadRow() (types.Row, error) {
	n, err := binary.ReadUvarint(rr.r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("encoding: spill read: %w", err)
	}
	// Grow the record buffer as bytes arrive, so a damaged length cannot
	// allocate more than the stream holds.
	rec := rr.rec[:0]
	for uint64(len(rec)) < n {
		have := len(rec)
		want := have + int(min(n-uint64(have), 64<<10))
		if want > cap(rec) {
			rec = append(rec[:cap(rec)], make([]byte, want-cap(rec))...)
		}
		rec = rec[:want]
		if _, err := io.ReadFull(rr.r, rec[have:]); err != nil {
			return nil, fmt.Errorf("encoding: spill read: truncated row: %w", err)
		}
	}
	rr.rec = rec
	row, used, err := types.DecodeRow(rec)
	if err != nil {
		return nil, fmt.Errorf("encoding: spill read: %w", err)
	}
	if used != len(rec) {
		return nil, fmt.Errorf("encoding: spill read: %d trailing bytes in row", len(rec)-used)
	}
	return row, nil
}
