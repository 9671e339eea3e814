package shardrpc

import (
	"encoding/binary"
	"fmt"

	"dashdb/internal/types"
)

// Row block codec: the bulk-row payload inside FrameRows, FrameInsert
// and FrameShuffleData frames. Cells use the shared value layout in
// internal/types (codec.go), plus a per-block string dictionary: strings
// that repeat within the block are written once up front and every
// occurrence ships as a dict code (tag = KindString | types.TagExt, then
// a uvarint index). This is the wire-level analogue of the engine's
// code-carrying vectors — shards cannot assume their column dictionaries
// agree (each shard builds its own domains), so the block is its own
// dictionary scope and the codes are always decodable by the receiver
// alone.
//
// Layout:
//
//	uvarint  row count
//	uvarint  dictionary size
//	per entry: uvarint length + bytes
//	per row:
//	  uvarint column count
//	  per column: types.AppendValue encoding, or the dict-code tag
//	  followed by a uvarint code
const dictTag = byte(types.KindString) | types.TagExt

// EncodeRowBlock appends the block encoding of rows to dst.
func EncodeRowBlock(dst []byte, rows []types.Row) ([]byte, error) {
	// First pass: count string occurrences; strings seen twice or more
	// earn a dictionary slot.
	counts := make(map[string]int)
	for _, r := range rows {
		for _, v := range r {
			if v.Kind() == types.KindString && !v.IsNull() {
				counts[v.Str()]++
			}
		}
	}
	dict := make(map[string]uint64)
	var entries []string
	for _, r := range rows {
		for _, v := range r {
			if v.Kind() != types.KindString || v.IsNull() {
				continue
			}
			s := v.Str()
			if counts[s] < 2 {
				continue
			}
			if _, ok := dict[s]; !ok {
				dict[s] = uint64(len(entries))
				entries = append(entries, s)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, s := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, r := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(r)))
		for _, v := range r {
			if v.Kind() == types.KindString && !v.IsNull() {
				if code, ok := dict[v.Str()]; ok {
					dst = append(dst, dictTag)
					dst = binary.AppendUvarint(dst, code)
					continue
				}
			}
			dst = types.AppendValue(dst, v)
		}
	}
	return dst, nil
}

// blockReader decodes a row block from a byte slice with allocation
// guards: every length read is checked against the remaining input
// before any allocation, so a hostile block cannot demand more memory
// than its own size.
type blockReader struct {
	b   []byte
	pos int
}

func (br *blockReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(br.b[br.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("shardrpc: row block: truncated uvarint")
	}
	br.pos += n
	return x, nil
}

func (br *blockReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(br.b)-br.pos) {
		return nil, fmt.Errorf("shardrpc: row block: %d bytes wanted, %d left", n, len(br.b)-br.pos)
	}
	out := br.b[br.pos : br.pos+int(n)]
	br.pos += int(n)
	return out, nil
}

// DecodeRowBlock decodes one row block.
func DecodeRowBlock(data []byte) ([]types.Row, error) {
	br := &blockReader{b: data}
	nRows, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	nDict, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if nDict > uint64(len(data)) {
		return nil, fmt.Errorf("shardrpc: row block: dict size %d exceeds block", nDict)
	}
	dict := make([]string, 0, nDict)
	for i := uint64(0); i < nDict; i++ {
		ln, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := br.bytes(ln)
		if err != nil {
			return nil, err
		}
		dict = append(dict, string(b))
	}
	// Each row costs at least one byte of input; same for each column.
	if nRows > uint64(len(data)) {
		return nil, fmt.Errorf("shardrpc: row block: row count %d exceeds block", nRows)
	}
	rows := make([]types.Row, 0, nRows)
	for i := uint64(0); i < nRows; i++ {
		nCols, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if nCols > uint64(len(data)-br.pos) {
			return nil, fmt.Errorf("shardrpc: row block: column count %d exceeds block", nCols)
		}
		row := make(types.Row, 0, nCols)
		for c := uint64(0); c < nCols; c++ {
			if br.pos >= len(br.b) {
				return nil, fmt.Errorf("shardrpc: row block: truncated row")
			}
			if br.b[br.pos] != dictTag {
				v, n, err := types.DecodeValue(br.b[br.pos:])
				if err != nil {
					return nil, fmt.Errorf("shardrpc: row block: %w", err)
				}
				br.pos += n
				row = append(row, v)
				continue
			}
			br.pos++
			code, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			if code >= uint64(len(dict)) {
				return nil, fmt.Errorf("shardrpc: row block: dict code %d of %d", code, len(dict))
			}
			row = append(row, types.NewString(dict[code]))
		}
		rows = append(rows, row)
	}
	return rows, nil
}
