package mpp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dashdb/internal/clusterfs"
	"dashdb/internal/types"
)

func fourNodes() []NodeSpec {
	return []NodeSpec{
		{Name: "A", Cores: 8, MemBytes: 64 << 20},
		{Name: "B", Cores: 8, MemBytes: 64 << 20},
		{Name: "C", Cores: 8, MemBytes: 64 << 20},
		{Name: "D", Cores: 8, MemBytes: 64 << 20},
	}
}

func salesSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
}

func newTestCluster(t testing.TB, rows int) *Cluster {
	t.Helper()
	c, err := NewCluster(fourNodes(), 6, clusterfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("sales", salesSchema(), TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	var batch []types.Row
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%4]),
			types.NewFloat(float64(i % 100)),
		})
	}
	if err := c.Insert("sales", batch); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterShardLayout(t *testing.T) {
	c := newTestCluster(t, 0)
	if len(c.Shards()) != 24 {
		t.Fatalf("shards %d want 24", len(c.Shards()))
	}
	// Shard count clamps at cumulative cores.
	c2, _ := NewCluster([]NodeSpec{{Name: "X", Cores: 2, MemBytes: 1 << 20}}, 8, nil)
	if len(c2.Shards()) != 2 {
		t.Fatalf("core clamp: %d shards", len(c2.Shards()))
	}
}

func TestInsertRouting(t *testing.T) {
	c := newTestCluster(t, 4800)
	total, err := c.Rows("sales")
	if err != nil || total != 4800 {
		t.Fatalf("rows %d err %v", total, err)
	}
	// Hash distribution should put data on every shard, roughly evenly.
	for _, sh := range c.Shards() {
		tbl, _ := sh.DB.Table("sales")
		n := tbl.Rows()
		if n < 100 || n > 300 {
			t.Fatalf("shard %d has %d rows: skewed distribution", sh.ID, n)
		}
	}
}

func TestFastPathAggregates(t *testing.T) {
	c := newTestCluster(t, 4000)
	r, err := c.Query(`SELECT COUNT(*), SUM(amount), MIN(id), MAX(id), AVG(amount) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[0].Int() != 4000 {
		t.Fatalf("count %v", row[0])
	}
	wantSum := 0.0
	for i := 0; i < 4000; i++ {
		wantSum += float64(i % 100)
	}
	if row[1].Float() != wantSum {
		t.Fatalf("sum %v want %v", row[1], wantSum)
	}
	if row[2].Int() != 0 || row[3].Int() != 3999 {
		t.Fatalf("min/max %v %v", row[2], row[3])
	}
	if row[4].Float() != wantSum/4000 {
		t.Fatalf("avg %v", row[4])
	}
	if c.Stats().FastPathQueries != 1 {
		t.Fatalf("fast path not used: %+v", c.Stats())
	}
}

func TestFastPathGroupBy(t *testing.T) {
	c := newTestCluster(t, 4000)
	r, err := c.Query(`SELECT region, COUNT(*) cnt, AVG(amount) a FROM sales WHERE id < 2000 GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("groups %d", len(r.Rows))
	}
	if r.Rows[0][0].Str() != "east" || r.Rows[0][1].Int() != 500 {
		t.Fatalf("group row %v", r.Rows[0])
	}
	if c.Stats().FastPathQueries != 1 {
		t.Fatalf("expected fast path: %+v", c.Stats())
	}
}

func TestPlainSelectScatter(t *testing.T) {
	c := newTestCluster(t, 1000)
	r, err := c.Query(`SELECT id, region FROM sales WHERE id < 10 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[0].Int() != int64(i) {
			t.Fatalf("order broken at %d: %v", i, row)
		}
	}
	r, err = c.Query(`SELECT id FROM sales ORDER BY id DESC LIMIT 3 OFFSET 1`)
	if err != nil || len(r.Rows) != 3 || r.Rows[0][0].Int() != 998 {
		t.Fatalf("limit/offset: %v err %v", r.Rows, err)
	}
}

func TestGatherPathFallback(t *testing.T) {
	c := newTestCluster(t, 1000)
	// MEDIAN is not decomposable → gather path.
	r, err := c.Query(`SELECT MEDIAN(amount) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].IsNull() {
		t.Fatalf("median %v", r.Rows[0])
	}
	if c.Stats().GatherPathQueries != 1 {
		t.Fatalf("expected gather path: %+v", c.Stats())
	}
	// COUNT(DISTINCT) also needs gather.
	r, err = c.Query(`SELECT COUNT(DISTINCT region) FROM sales`)
	if err != nil || r.Rows[0][0].Int() != 4 {
		t.Fatalf("count distinct %v err %v", r.Rows, err)
	}
	// Subquery → gather.
	r, err = c.Query(`SELECT COUNT(*) FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)`)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Rows[0][0].Int(); n == 0 || n == 1000 {
		t.Fatalf("subquery count %d", n)
	}
}

func TestColocatedJoinWithReplicatedDimension(t *testing.T) {
	c := newTestCluster(t, 2000)
	dim := types.Schema{
		{Name: "region", Kind: types.KindString},
		{Name: "zone", Kind: types.KindString},
	}
	if err := c.CreateTable("regions", dim, TableOptions{Replicated: true}); err != nil {
		t.Fatal(err)
	}
	err := c.Insert("regions", []types.Row{
		{types.NewString("north"), types.NewString("Z1")},
		{types.NewString("south"), types.NewString("Z1")},
		{types.NewString("east"), types.NewString("Z2")},
		{types.NewString("west"), types.NewString("Z2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`
		SELECT r.zone, COUNT(*) FROM sales s JOIN regions r ON s.region = r.region
		GROUP BY r.zone ORDER BY r.zone`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].Int() != 1000 || r.Rows[1][1].Int() != 1000 {
		t.Fatalf("join groups %v", r.Rows)
	}
	if c.Stats().FastPathQueries == 0 {
		t.Fatalf("co-located join should be fast path: %+v", c.Stats())
	}
}

func TestDMLBroadcast(t *testing.T) {
	c := newTestCluster(t, 1000)
	r, err := c.Query(`DELETE FROM sales WHERE id < 100`)
	if err != nil || r.RowsAffected != 100 {
		t.Fatalf("delete %v err %v", r, err)
	}
	total, _ := c.Rows("sales")
	if total != 900 {
		t.Fatalf("rows after delete %d", total)
	}
	r, err = c.Query(`UPDATE sales SET amount = 0 WHERE region = 'north'`)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := c.Query(`SELECT COUNT(*) FROM sales WHERE amount = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].Int() < r.RowsAffected {
		t.Fatalf("update not visible: %v vs %v", cnt.Rows[0][0], r.RowsAffected)
	}
}

func TestSQLDDL(t *testing.T) {
	c, _ := NewCluster(fourNodes(), 2, nil)
	if _, err := c.Query(`CREATE TABLE t1 (a BIGINT NOT NULL, b VARCHAR(10))`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`INSERT INTO t1 VALUES (1, 'x'), (2, 'y')`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`SELECT COUNT(*) FROM t1`)
	if err != nil || r.Rows[0][0].Int() != 2 {
		t.Fatalf("ddl roundtrip %v err %v", r, err)
	}
	if _, err := c.Query(`DROP TABLE t1`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT * FROM t1`); err == nil {
		t.Fatal("dropped table queryable")
	}
}

func TestReplicatedTableCounts(t *testing.T) {
	c := newTestCluster(t, 0)
	dim := types.Schema{{Name: "k", Kind: types.KindInt}}
	c.CreateTable("d", dim, TableOptions{Replicated: true})
	c.Insert("d", []types.Row{{types.NewInt(1)}, {types.NewInt(2)}})
	n, err := c.Rows("d")
	if err != nil || n != 2 {
		t.Fatalf("replicated rows %d err %v", n, err)
	}
	r, err := c.Query(`SELECT COUNT(*) FROM d`)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT over a replicated table via fast path would multiply by the
	// shard count; the coordinator must handle it (gather or correct
	// plan). Accept only the true count.
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("replicated COUNT = %v, want 2", r.Rows[0][0])
	}
}

func TestClusterFSPersistsPages(t *testing.T) {
	fs := clusterfs.New()
	c, _ := NewCluster(fourNodes(), 2, fs)
	c.CreateTable("sales", salesSchema(), TableOptions{})
	var batch []types.Row
	for i := 0; i < 20000; i++ {
		batch = append(batch, types.Row{types.NewInt(int64(i)), types.NewString("x"), types.NewFloat(1)})
	}
	c.Insert("sales", batch)
	if len(fs.List("shards/")) == 0 {
		t.Fatal("no pages written to the clustered filesystem")
	}
	if fs.TotalBytes() == 0 {
		t.Fatal("filesystem empty")
	}
	// Snapshot (portability / DR story).
	snap := fs.Snapshot()
	if snap.TotalBytes() != fs.TotalBytes() {
		t.Fatal("snapshot size mismatch")
	}
}

func TestQueryErrors(t *testing.T) {
	c := newTestCluster(t, 10)
	if _, err := c.Query(`SELECT * FROM missing`); err == nil {
		t.Fatal("missing table must error")
	}
	if _, err := c.Query(`SELEC bogus`); err == nil {
		t.Fatal("parse error must surface")
	}
	if err := c.CreateTable("sales", salesSchema(), TableOptions{}); err == nil {
		t.Fatal("duplicate create must error")
	}
	if err := c.CreateTable("x", salesSchema(), TableOptions{DistributeBy: "nope"}); err == nil {
		t.Fatal("bad distribution column must error")
	}
	if err := c.Insert("missing", nil); err == nil {
		t.Fatal("insert into missing table must error")
	}
}

func BenchmarkMPPFastPathAggregate(b *testing.B) {
	c := newTestCluster(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region`); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: for random row sets, hash routing lands every row on exactly
// one shard and cluster-wide aggregates equal local computation
// (TestFigure9Failover checks the same totals across a NetCluster
// failover).
func TestRoutingConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCluster(fourNodes(), 3, nil)
		if err != nil {
			return false
		}
		if err := c.CreateTable("t", types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt, Nullable: true},
		}, TableOptions{DistributeBy: "k"}); err != nil {
			return false
		}
		n := rng.Intn(3000) + 100
		var rows []types.Row
		wantSum := int64(0)
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(1000))
			wantSum += v
			rows = append(rows, types.Row{types.NewInt(int64(rng.Int31())), types.NewInt(v)})
		}
		if err := c.Insert("t", rows); err != nil {
			return false
		}
		check := func() bool {
			total := 0
			for _, sh := range c.Shards() {
				tbl, _ := sh.DB.Table("t")
				total += tbl.Rows()
			}
			if total != n {
				return false
			}
			r, err := c.Query(`SELECT COUNT(*), SUM(v) FROM t`)
			if err != nil {
				return false
			}
			return r.Rows[0][0].Int() == int64(n) && r.Rows[0][1].Int() == wantSum
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestClusterQueryHistoryMergesShardStats(t *testing.T) {
	c := newTestCluster(t, 10_000)
	// Fast path: parallel partitioned aggregate scattered to all 24 shards.
	if _, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM sales WHERE id < 5000 GROUP BY region`); err != nil {
		t.Fatal(err)
	}
	// Gather path: MEDIAN has no partial form, rows ship to the coordinator.
	if _, err := c.Query(`SELECT MEDIAN(amount) FROM sales`); err != nil {
		t.Fatal(err)
	}
	hist := c.History()
	if len(hist) != 2 {
		t.Fatalf("history has %d records, want 2", len(hist))
	}
	agg := hist[0]
	if agg.Shards != 24 {
		t.Fatalf("fast-path record shards=%d, want 24", agg.Shards)
	}
	if agg.Status != "ok" || agg.Rows != 4 {
		t.Fatalf("fast-path record %+v", agg)
	}
	var scanRows, visited int64
	for _, op := range agg.Ops {
		if op.HasScan {
			scanRows += op.Rows
			visited += op.StridesVisited
		}
	}
	if scanRows == 0 || visited == 0 {
		t.Fatalf("merged record lost scan counters: rows=%d visited=%d", scanRows, visited)
	}
	med := hist[1]
	if med.Shards != 24 || med.Status != "ok" {
		t.Fatalf("gather-path record %+v", med)
	}
	if med.SQL == "" || agg.SQL == "" {
		t.Fatal("history records must carry the SQL text")
	}
	if med.ID == agg.ID {
		t.Fatal("history records must get distinct cluster-level IDs")
	}
}
