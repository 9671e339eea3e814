package encoding

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dashdb/internal/types"
)

// Encoder persistence: dictionaries and frames of reference serialize so
// a column-organized table can be closed and reopened from the clustered
// filesystem (the §II.E portability/DR story). The format is gob over a
// small DTO whose dictionary values are packed rows in the shared value
// layout (types.AppendRow); codes are stable across a round trip, so
// existing pages stay valid.

// encSnapshot is the on-disk encoder state.
type encSnapshot struct {
	Tag   uint8 // 1 = IntFOR, 2 = Dict, 3 = FloatFOR
	Kind  uint8 // types.Kind the encoder decodes into
	Base  int64
	Limit uint64
	Scale float64
	// Dict state: each partition packs its sorted values in code order;
	// Ext packs the extension-region values in code order.
	Parts [][]byte
	Ext   []byte
}

// MarshalEncoder serializes any built-in encoder.
func MarshalEncoder(e Encoder) ([]byte, error) {
	var snap encSnapshot
	switch enc := e.(type) {
	case *IntFOR:
		snap = encSnapshot{Tag: 1, Kind: uint8(enc.kind), Base: enc.base, Limit: enc.limit}
	case *FloatFOR:
		snap = encSnapshot{Tag: 3, Kind: uint8(types.KindFloat), Base: enc.inner.base, Limit: enc.inner.limit, Scale: enc.scale}
	case *Dict:
		enc.mu.RLock()
		snap = encSnapshot{Tag: 2, Kind: uint8(enc.kind)}
		for i := range enc.parts {
			p := &enc.parts[i]
			snap.Parts = append(snap.Parts, types.AppendRow(nil, enc.decoded[p.start:p.start+uint64(p.len())]))
		}
		snap.Ext = types.AppendRow(nil, enc.extension)
		enc.mu.RUnlock()
	default:
		return nil, fmt.Errorf("encoding: cannot marshal encoder %T", e)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalEncoder reconstructs an encoder; code assignments are
// identical to the original's, so packed pages remain decodable.
func UnmarshalEncoder(data []byte) (Encoder, error) {
	var snap encSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("encoding: unmarshal encoder: %w", err)
	}
	kind := types.Kind(snap.Kind)
	switch snap.Tag {
	case 1:
		return &IntFOR{base: snap.Base, limit: snap.Limit, width: widthForSpan(snap.Limit), kind: kind}, nil
	case 3:
		return &FloatFOR{
			inner: &IntFOR{base: snap.Base, limit: snap.Limit, width: widthForSpan(snap.Limit), kind: types.KindInt},
			scale: snap.Scale,
		}, nil
	case 2:
		d := &Dict{kind: kind, lookup: make(map[types.Value]uint64)}
		for _, part := range snap.Parts {
			vals, err := decodePacked(part)
			if err != nil {
				return nil, err
			}
			d.addPartition(vals)
		}
		d.extStart = d.card
		ext, err := decodePacked(snap.Ext)
		if err != nil {
			return nil, err
		}
		for _, v := range ext {
			if _, ok := d.normalize(v); !ok || v.IsNull() {
				return nil, fmt.Errorf("encoding: unmarshal dictionary: %v extension value in %v dictionary", v.Kind(), kind)
			}
			d.Encode(v)
		}
		return d, nil
	default:
		return nil, fmt.Errorf("encoding: unknown encoder tag %d", snap.Tag)
	}
}

// decodePacked decodes one packed dictionary region.
func decodePacked(b []byte) ([]types.Value, error) {
	vals, n, err := types.DecodeRow(b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("%d trailing bytes", len(b)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding: unmarshal dictionary: %w", err)
	}
	return vals, nil
}
