package columnar

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
)

// Table persistence: SaveMeta writes everything that is not already in
// sealed pages — encoders (dictionaries), synopses, the open stride's
// rows, tombstones and counters — as a metadata blob in the page store.
// OpenTable reconstructs the table from that blob plus the existing
// pages. Together with the clustered filesystem this realizes §II.E's
// portability claim: copy the filesystem, reopen the tables anywhere.

// metaColumn is the reserved column ordinal of the metadata pseudo-page.
const metaColumn = 0xFFFF

// metaID returns the table's metadata blob location.
func metaID(table uint32) page.ID {
	return page.ID{Table: table, Column: metaColumn, Stride: 0}
}

// colMeta is one column's persisted state.
type colMeta struct {
	Encoder  []byte
	Synopsis []synopsis.Entry
	Gen      uint32 // page generation the sealed strides live under
}

// tableMetaBlob is the serialized table state.
type tableMetaBlob struct {
	Name     string
	Rows     int
	Live     int
	RawBytes int
	GenSeq   uint32 // page-generation allocator position
	Deleted  []int  // set tombstone positions
	Cols     []colMeta
	OpenRows []byte // open-stride rows, row-major, packed by types.AppendRow
}

// SaveMeta persists the table's non-page state into the page store.
func (t *Table) SaveMeta() error {
	t.mu.Lock() // writer lock: ensureEncodersLocked may install encoders
	defer t.mu.Unlock()
	t.ensureEncodersLocked()
	blob := tableMetaBlob{
		Name:     t.name,
		Rows:     t.rows,
		Live:     t.live,
		RawBytes: t.rawBytes,
		GenSeq:   t.genSeq,
	}
	t.deleted.ForEach(func(i int) { blob.Deleted = append(blob.Deleted, i) })
	for _, c := range t.cols {
		encBytes, err := encoding.MarshalEncoder(c.enc)
		if err != nil {
			return fmt.Errorf("columnar: save %s: %w", t.name, err)
		}
		cm := colMeta{Encoder: encBytes, Gen: c.gen}
		for s := 0; s < c.syn.Strides(); s++ {
			cm.Synopsis = append(cm.Synopsis, c.syn.Entry(s))
		}
		blob.Cols = append(blob.Cols, cm)
	}
	// Open-stride rows, reconstructed row-major from the column buffers.
	open := t.openLen()
	row := make(types.Row, len(t.cols))
	for i := 0; i < open; i++ {
		for ci, c := range t.cols {
			row[ci] = c.openVals[i]
		}
		blob.OpenRows = types.AppendRow(blob.OpenRows, row)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return fmt.Errorf("columnar: save %s: %w", t.name, err)
	}
	return t.store.WritePage(metaID(t.id), buf.Bytes())
}

// OpenTable reopens a table previously persisted with SaveMeta: encoders
// and synopses come from the metadata blob, sealed pages stay where they
// are in the store.
func OpenTable(id uint32, schema types.Schema, cfg Config) (*Table, error) {
	store := cfg.Store
	if store == nil {
		return nil, fmt.Errorf("columnar: OpenTable requires a page store")
	}
	data, err := store.ReadPage(metaID(id))
	if err != nil {
		return nil, fmt.Errorf("columnar: open table %d: %w", id, err)
	}
	var blob tableMetaBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("columnar: open table %d: %w", id, err)
	}
	if len(blob.Cols) != len(schema) {
		return nil, fmt.Errorf("columnar: open table %d: schema has %d columns, meta has %d", id, len(schema), len(blob.Cols))
	}
	var openRows []types.Row
	for b := blob.OpenRows; len(b) > 0; {
		row, n, err := types.DecodeRow(b)
		if err == nil && len(row) != len(schema) {
			err = fmt.Errorf("row has %d columns, schema %d", len(row), len(schema))
		}
		if err != nil {
			return nil, fmt.Errorf("columnar: open table %d: open stride: %w", id, err)
		}
		openRows = append(openRows, row)
		b = b[n:]
	}
	t := NewTable(id, blob.Name, schema, cfg)
	sealedRows := blob.Rows - len(openRows)
	t.rows = sealedRows
	t.live = sealedRows // adjusted below by tombstones and open rows
	t.rawBytes = blob.RawBytes
	t.genSeq = blob.GenSeq
	for ci, cm := range blob.Cols {
		enc, err := encoding.UnmarshalEncoder(cm.Encoder)
		if err != nil {
			return nil, fmt.Errorf("columnar: open table %d column %d: %w", id, ci, err)
		}
		t.cols[ci].enc = enc
		t.cols[ci].analyzed = true
		t.cols[ci].gen = cm.Gen
		for s, e := range cm.Synopsis {
			t.cols[ci].syn.Set(s, e)
		}
	}
	t.growDeletedLocked()
	// Re-append the open stride through the normal insert path (codes are
	// stable because the encoders' domains were restored).
	for _, row := range openRows {
		if err := t.insertLocked(row); err != nil {
			return nil, fmt.Errorf("columnar: open table %d: replay open stride: %w", id, err)
		}
	}
	t.rawBytes = blob.RawBytes
	// Tombstones last (insertLocked grew the bitmap).
	t.growDeletedLocked()
	for _, pos := range blob.Deleted {
		if pos < t.rows && !t.deleted.Get(pos) {
			t.deleted.Set(pos)
			t.live--
		}
	}
	if t.live != blob.Live {
		return nil, fmt.Errorf("columnar: open table %d: live count mismatch (%d vs %d)", id, t.live, blob.Live)
	}
	// Publish the restored state as the table's first real epoch (the
	// constructor published an empty one before the rows were replayed).
	t.publishLocked()
	return t, nil
}
