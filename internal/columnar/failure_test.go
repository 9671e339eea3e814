package columnar

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// faultStore injects storage failures: writes fail after failAfter
// successful ones; reads fail when failReads is set.
type faultStore struct {
	inner     PageStore
	writes    int
	failAfter int
	failReads bool
}

func (f *faultStore) WritePage(id page.ID, data []byte) error {
	f.writes++
	if f.failAfter >= 0 && f.writes > f.failAfter {
		return fmt.Errorf("faultStore: simulated write failure on %v", id)
	}
	return f.inner.WritePage(id, data)
}

func (f *faultStore) ReadPage(id page.ID) ([]byte, error) {
	if f.failReads {
		return nil, fmt.Errorf("faultStore: simulated read failure on %v", id)
	}
	return f.inner.ReadPage(id)
}

func (f *faultStore) DeletePage(id page.ID) error { return f.inner.DeletePage(id) }

func (f *faultStore) DeletePages(table uint32) error { return f.inner.DeletePages(table) }

func TestSealFailureSurfacesOnInsert(t *testing.T) {
	fs := &faultStore{inner: NewMemStore(), failAfter: 2}
	tbl := NewTable(50, "f", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: fs})
	var rows []types.Row
	for i := 0; i < 4*page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	err := tbl.InsertBatch(rows)
	if err == nil {
		t.Fatal("write failure during seal must surface")
	}
}

func TestReadFailureSurfacesOnScan(t *testing.T) {
	fs := &faultStore{inner: NewMemStore(), failAfter: -1}
	tbl := NewTable(51, "f", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: fs})
	var rows []types.Row
	for i := 0; i < 2*page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	fs.failReads = true
	err := tbl.Scan([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("read failure during scan must surface")
	}
	// Without predicates the scan touches no pages until materialization:
	// the failure surfaces when the batch decodes values.
	err = tbl.Scan(nil, func(b *Batch) bool {
		b.Row(0)
		return true
	})
	if err == nil {
		t.Fatal("read failure during materialization must surface as error, not panic")
	}
	// The naive path surfaces it too.
	if err := tbl.ScanNaive([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true }); err == nil {
		t.Fatal("read failure during naive scan must surface")
	}
}

func TestCorruptPageDetectedOnLoad(t *testing.T) {
	store := NewMemStore()
	tbl := NewTable(52, "c", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: store})
	var rows []types.Row
	for i := 0; i < page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sealed page in place.
	id := page.ID{Table: 52, Column: 0, Stride: 0}
	data, err := store.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[40] ^= 0xFF
	store.WritePage(id, corrupt)
	err = tbl.Scan([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("checksum mismatch must surface as a scan error")
	}
}

func TestConcurrentScansShareTable(t *testing.T) {
	tbl := newTestTable(t, 8*page.StrideSize)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			n, err := tbl.CountWhere([]Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(int64(1000 * (g + 1)))}})
			if err == nil && n != 1000*(g+1) {
				err = fmt.Errorf("goroutine %d saw %d rows", g, n)
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveAndOpenTable persists a table (sealed pages + dictionaries +
// open stride + tombstones) and reopens it from the store, verifying
// query equivalence — the §II.E portability mechanism.
func TestSaveAndOpenTable(t *testing.T) {
	store := NewMemStore()
	orig := NewTable(60, "sales", salesSchema(), Config{Store: store})
	loadSales(t, orig, 3000) // 2 sealed strides + open stride
	if _, err := orig.DeleteWhere([]Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(100)}}); err != nil {
		t.Fatal(err)
	}
	// A late value lands in the dictionary extension region.
	if err := orig.Insert(types.Row{
		types.NewInt(99999), types.NewString("central"), types.NewDate(0), types.NewFloat(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveMeta(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenTable(60, salesSchema(), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Rows() != orig.Rows() {
		t.Fatalf("rows %d vs %d", reopened.Rows(), orig.Rows())
	}
	queries := [][]Pred{
		nil,
		{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(500)}},
		{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("north")}},
		{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("central")}},
		{{Col: 1, Op: encoding.OpLT, Val: types.NewString("east")}},
		{{Col: 3, Op: encoding.OpGT, Val: types.NewFloat(100)}},
	}
	for _, preds := range queries {
		want, err := orig.CountWhere(preds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.CountWhere(preds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("preds %v: reopened %d vs original %d", preds, got, want)
		}
	}
	// The reopened table accepts further writes.
	if err := reopened.Insert(types.Row{
		types.NewInt(100000), types.NewString("north"), types.NewDate(1), types.NewFloat(2),
	}); err != nil {
		t.Fatal(err)
	}
	// Errors: opening a missing table, schema mismatch.
	if _, err := OpenTable(61, salesSchema(), Config{Store: store}); err == nil {
		t.Fatal("missing meta must fail")
	}
	if _, err := OpenTable(60, salesSchema()[:2], Config{Store: store}); err == nil {
		t.Fatal("schema arity mismatch must fail")
	}

	// The open stride holds every kind, typed NULLs and float edge
	// values; they must come back bit for bit.
	allKinds := types.Schema{
		{Name: "b", Kind: types.KindBool, Nullable: true},
		{Name: "i", Kind: types.KindInt, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "d", Kind: types.KindDate, Nullable: true},
		{Name: "ts", Kind: types.KindTimestamp, Nullable: true},
	}
	var nulls types.Row
	for _, c := range allKinds {
		nulls = append(nulls, types.NullOf(c.Kind))
	}
	kinds := NewTable(62, "kinds", allKinds, Config{Store: store})
	for _, r := range []types.Row{
		{types.NewBool(true), types.NewInt(math.MinInt64), types.NewFloat(math.NaN()), types.NewString(""), types.NewDate(-1), types.NewTimestamp(math.MaxInt64)},
		nulls,
		{types.NewBool(false), types.NewInt(math.MaxInt64), types.NewFloat(math.Copysign(0, -1)), types.NewString("日本語"), types.NewDate(19000), types.NewTimestamp(0)},
		{types.NewBool(true), types.NewInt(0), types.NewFloat(math.Float64frombits(0x7ff8dead0000beef)), types.NewString("x"), types.NewDate(0), types.NewTimestamp(-1)},
		{types.NewBool(false), types.NewInt(-1), types.NewFloat(math.Inf(-1)), types.NewString("x"), types.NewDate(1), types.NewTimestamp(1)},
	} {
		if err := kinds.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := kinds.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenTable(62, allKinds, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kinds.SelectWhere(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.SelectWhere(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != 5 {
		t.Fatalf("reopened %d open-stride rows, want %d (of 5)", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			same := g.Kind() == w.Kind() && g.IsNull() == w.IsNull()
			if same && !w.IsNull() {
				if w.Kind() == types.KindFloat {
					same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
				} else {
					same = types.Compare(g, w) == 0
				}
			}
			if !same {
				t.Fatalf("row %d col %s: reopened %v (%v), want %v (%v)", i, allKinds[c].Name, g, g.Kind(), w, w.Kind())
			}
		}
	}
	if !math.IsNaN(got[0][2].Float()) || !got[1][5].IsNull() || got[1][5].Kind() != types.KindTimestamp {
		t.Fatalf("NaN or typed NULL lost: %v", got[:2])
	}
}

// TestOpenTableRejectsOldOpenStride: table metadata from before the open
// stride was packed in the shared value layout (one gob struct per
// cell) must fail to open, not read as an empty open stride.
func TestOpenTableRejectsOldOpenStride(t *testing.T) {
	store := NewMemStore()
	orig := NewTable(63, "sales", salesSchema(), Config{Store: store})
	loadSales(t, orig, 10)
	if err := orig.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	data, err := store.ReadPage(metaID(63))
	if err != nil {
		t.Fatal(err)
	}
	var blob tableMetaBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		K    uint8
		Null bool
		I    int64
		F    float64
		S    string
	}
	old := struct {
		Name                 string
		Rows, Live, RawBytes int
		GenSeq               uint32
		Deleted              []int
		Cols                 []colMeta
		OpenRows             [][]cell
	}{blob.Name, blob.Rows, blob.Live, blob.RawBytes, blob.GenSeq, blob.Deleted, blob.Cols, make([][]cell, 10)}
	for i := range old.OpenRows {
		old.OpenRows[i] = []cell{{K: uint8(types.KindInt), I: int64(i)}, {K: uint8(types.KindString), S: "north"}, {K: uint8(types.KindDate)}, {K: uint8(types.KindFloat), F: 1}}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(metaID(63), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if tbl, err := OpenTable(63, salesSchema(), Config{Store: store}); err == nil {
		t.Fatalf("old-format metadata opened with %d rows", tbl.Rows())
	}
}
