package mpp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dashdb/internal/clusterfs"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// startNetCluster boots n in-process shard servers (nodeA, nodeB, ...)
// over one clustered filesystem and a coordinator with nShards shards
// spread across them.
func startNetCluster(t *testing.T, n, nShards int) (*NetCluster, []*shardrpc.Server, *clusterfs.FS) {
	t.Helper()
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("node%c", 'A'+i))
	}
	return startNodes(t, nShards, names...)
}

// startNodes is startNetCluster with explicit node names.
func startNodes(t *testing.T, nShards int, names ...string) (*NetCluster, []*shardrpc.Server, *clusterfs.FS) {
	t.Helper()
	fs := clusterfs.New()
	c, servers, err := StartLocal(testNodes(names...), nShards, fs)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(func() { CloseServers(servers) })
	t.Cleanup(c.Close)
	return c, servers, fs
}

// testNodes specs one 4-core, 256 MB node per name.
func testNodes(names ...string) []NetNode {
	var nodes []NetNode
	for _, name := range names {
		nodes = append(nodes, NetNode{Name: name, Cores: 4, MemBytes: 256 << 20})
	}
	return nodes
}

// startServers boots in-process servers for names over fs, closed at
// test end.
func startServers(t *testing.T, fs *clusterfs.FS, names ...string) ([]NetNode, []*shardrpc.Server) {
	t.Helper()
	nodes, servers, err := StartServers(testNodes(names...), fs)
	if err != nil {
		t.Fatalf("StartServers: %v", err)
	}
	t.Cleanup(func() { CloseServers(servers) })
	return nodes, servers
}

func seedNetSales(t *testing.T, c *NetCluster, rows int) {
	t.Helper()
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
	if err := c.CreateTable("sales", schema, TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	regions := []string{"north", "south", "east", "west"}
	var batch []types.Row
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%len(regions)]),
			types.NewFloat(float64(i%100) + 0.5),
		})
	}
	if err := c.Insert("sales", batch); err != nil {
		t.Fatalf("insert: %v", err)
	}
}

func TestNetClusterScatterAggregate(t *testing.T) {
	c, _, _ := startNetCluster(t, 3, 3)
	seedNetSales(t, c, 400)

	if n, err := c.Rows("sales"); err != nil || n != 400 {
		t.Fatalf("rows=%d err=%v", n, err)
	}
	res, err := c.Query("SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS avg_amt FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 100 {
			t.Fatalf("group %v count %d, want 100", r[0], r[1].Int())
		}
	}
	if res.Stats == nil {
		t.Fatal("scatter result must carry merged shard stats")
	}
	if res.Stats.Shards != 3 {
		t.Fatalf("stats shards %d, want 3", res.Stats.Shards)
	}
	if got := c.Stats(); got.FastPathQueries == 0 {
		t.Fatalf("fast path not taken: %+v", got)
	}
}

// TestNetClusterParitySingleNode is the bit-identical acceptance check:
// the same workload on a 3-shard network cluster and a 1-shard cluster
// must produce identical results on scatter, shuffle-join and gather
// paths alike.
func TestNetClusterParitySingleNode(t *testing.T) {
	multi, _, _ := startNetCluster(t, 3, 3)
	single, _, _ := startNetCluster(t, 1, 1)

	for _, c := range []*NetCluster{multi, single} {
		seedNetSales(t, c, 300)
		if err := c.CreateTable("regions", types.Schema{
			{Name: "name", Kind: types.KindString},
			{Name: "manager", Kind: types.KindString, Nullable: true},
		}, TableOptions{DistributeBy: "name"}); err != nil {
			t.Fatalf("create regions: %v", err)
		}
		if err := c.Insert("regions", []types.Row{
			{types.NewString("north"), types.NewString("ada")},
			{types.NewString("south"), types.NewString("bob")},
			{types.NewString("east"), types.NewString("cho")},
			// "west" intentionally missing: exercises LEFT JOIN nulls.
		}); err != nil {
			t.Fatalf("insert regions: %v", err)
		}
	}

	queries := []string{
		// Scatter fast path: partial aggregation.
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, MAX(amount) AS hi FROM sales GROUP BY region ORDER BY region",
		// Global aggregate, no GROUP BY.
		"SELECT COUNT(*) AS n, AVG(amount) AS a FROM sales",
		// Plain scatter with ORDER BY + LIMIT pushdown.
		"SELECT id, amount FROM sales ORDER BY id DESC LIMIT 7",
		// Shuffle join: two distributed tables on a non-distribution key.
		"SELECT s.region, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region",
		// LEFT JOIN through the shuffle (west has no match).
		"SELECT s.region, COUNT(*) AS n FROM sales s LEFT JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region",
		// Gather path: DISTINCT disqualifies the fast paths.
		"SELECT DISTINCT region FROM sales ORDER BY region",
	}
	for _, q := range queries {
		mres, err := multi.Query(q)
		if err != nil {
			t.Fatalf("multi %q: %v", q, err)
		}
		sres, err := single.Query(q)
		if err != nil {
			t.Fatalf("single %q: %v", q, err)
		}
		if got, want := renderRows(mres.Rows), renderRows(sres.Rows); got != want {
			t.Fatalf("%q diverged:\n3-shard:\n%s\n1-shard:\n%s", q, got, want)
		}
	}
	if st := multi.Stats(); st.ShuffleJoins == 0 {
		t.Fatalf("shuffle join path not taken: %+v", st)
	}
}

func renderRows(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestNetClusterParityNullJoinKeys: NULL join keys hash to partition 0
// but must never match under SQL equality; LEFT JOIN must null-extend
// them. Parity against a single shard proves the shuffle preserves
// those semantics.
func TestNetClusterParityNullJoinKeys(t *testing.T) {
	multi, _, _ := startNetCluster(t, 3, 3)
	single, _, _ := startNetCluster(t, 1, 1)

	for _, c := range []*NetCluster{multi, single} {
		if err := c.CreateTable("orders", types.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "cust", Kind: types.KindString, Nullable: true},
		}, TableOptions{DistributeBy: "id"}); err != nil {
			t.Fatalf("create orders: %v", err)
		}
		if err := c.CreateTable("custs", types.Schema{
			{Name: "name", Kind: types.KindString, Nullable: true},
			{Name: "tier", Kind: types.KindInt},
		}, TableOptions{DistributeBy: "tier"}); err != nil {
			t.Fatalf("create custs: %v", err)
		}
		var orders []types.Row
		for i := 0; i < 60; i++ {
			cust := types.NewString(fmt.Sprintf("c%d", i%7))
			if i%5 == 0 {
				cust = types.Null // NULL join keys sprinkled through every shard
			}
			orders = append(orders, types.Row{types.NewInt(int64(i)), cust})
		}
		if err := c.Insert("orders", orders); err != nil {
			t.Fatalf("insert orders: %v", err)
		}
		var custs []types.Row
		for i := 0; i < 7; i++ {
			name := types.NewString(fmt.Sprintf("c%d", i))
			if i == 3 {
				name = types.Null // NULL on the build side too
			}
			custs = append(custs, types.Row{name, types.NewInt(int64(i))})
		}
		if err := c.Insert("custs", custs); err != nil {
			t.Fatalf("insert custs: %v", err)
		}
	}
	queries := []string{
		"SELECT COUNT(*) AS n FROM orders o INNER JOIN custs c ON o.cust = c.name",
		"SELECT COUNT(*) AS n FROM orders o LEFT JOIN custs c ON o.cust = c.name",
		"SELECT o.cust, COUNT(*) AS n FROM orders o LEFT JOIN custs c ON o.cust = c.name GROUP BY o.cust ORDER BY 1",
	}
	for _, q := range queries {
		mres, err := multi.Query(q)
		if err != nil {
			t.Fatalf("multi %q: %v", q, err)
		}
		sres, err := single.Query(q)
		if err != nil {
			t.Fatalf("single %q: %v", q, err)
		}
		if got, want := renderRows(mres.Rows), renderRows(sres.Rows); got != want {
			t.Fatalf("%q diverged:\n3-shard:\n%s\n1-shard:\n%s", q, got, want)
		}
	}
}

// TestNetClusterParityUnderSpill starves every shard (tiny node RAM →
// ~8KB sort/hash heaps) so sorts and joins spill mid-query, and checks
// the distributed answer still matches a comfortable single shard.
func TestNetClusterParityUnderSpill(t *testing.T) {
	fs := clusterfs.New()
	var nodes []NetNode
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("tiny%d", i)
		srv := shardrpc.NewServer(name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatalf("start: %v", err)
		}
		t.Cleanup(srv.Close)
		// ~56KB per shard slice → ~8KB SORTHEAP/HASHHEAP per shard.
		nodes = append(nodes, NetNode{Name: name, Addr: srv.Addr(), Cores: 2, MemBytes: 112 << 10})
	}
	multi, err := NewNetCluster(nodes, 6, fs)
	if err != nil {
		t.Fatalf("NewNetCluster: %v", err)
	}
	t.Cleanup(multi.Close)
	for _, a := range multi.ShardAssigns() {
		if a.SortHeap > 16<<10 {
			t.Fatalf("shard %d sort heap %d: test needs starved heaps", a.ID, a.SortHeap)
		}
	}
	single, _, _ := startNetCluster(t, 1, 1)

	for _, c := range []*NetCluster{multi, single} {
		seedNetSales(t, c, 2000)
	}
	queries := []string{
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM sales GROUP BY region ORDER BY region",
		"SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 25",
		"SELECT DISTINCT region FROM sales ORDER BY region",
	}
	for _, q := range queries {
		mres, err := multi.Query(q)
		if err != nil {
			t.Fatalf("multi %q: %v", q, err)
		}
		sres, err := single.Query(q)
		if err != nil {
			t.Fatalf("single %q: %v", q, err)
		}
		if got, want := renderRows(mres.Rows), renderRows(sres.Rows); got != want {
			t.Fatalf("%q diverged under spill:\n3-shard:\n%s\n1-shard:\n%s", q, got, want)
		}
	}
}

// TestNetClusterFailover kills one server mid-workload: the survivors
// adopt its shards from clusterfs with reduced per-shard budgets and
// the interrupted statement completes.
func TestNetClusterFailover(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedNetSales(t, c, 600)

	before := c.ShardAssigns()

	// Kill node B's process outright — the coordinator has not been told.
	servers[1].Close()

	res, err := c.Query("SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatalf("query after node death: %v", err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	if total != 600 {
		t.Fatalf("post-failover count %d, want 600 (no rows lost)", total)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
	if got := c.Assignment(); strings.Contains(got, "nodeB") {
		t.Fatalf("dead node still assigned: %s", got)
	}

	// Survivors host 3 shards each now, so per-shard budgets must shrink.
	after := c.ShardAssigns()
	shrunk := false
	for i := range after {
		if after[i].MemBytes < before[i].MemBytes || after[i].Parallelism < before[i].Parallelism {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatalf("per-shard budgets did not shrink after failover:\nbefore %+v\nafter  %+v", before, after)
	}

	// Inserts keep working against the new assignment.
	if err := c.Insert("sales", []types.Row{{types.NewInt(9999), types.NewString("north"), types.NewFloat(1.5)}}); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
	if n, err := c.Rows("sales"); err != nil || n != 601 {
		t.Fatalf("rows=%d err=%v", n, err)
	}
}

// TestNetClusterInsertFailoverNoDuplicates kills a node WITHOUT telling
// the coordinator, then inserts: the first attempt lands on the live
// nodes and fails against the dead one, and the failover retry must
// re-send only the failed shards' buckets. Re-sending everything (the
// reviewed bug) duplicated rows on every shard that had already
// durably applied its bucket.
func TestNetClusterInsertFailoverNoDuplicates(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedNetSales(t, c, 300)

	servers[2].Close()

	var batch []types.Row
	for i := 300; i < 500; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString("north"),
			types.NewFloat(1),
		})
	}
	if err := c.Insert("sales", batch); err != nil {
		t.Fatalf("insert across node death: %v", err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
	if n, err := c.Rows("sales"); err != nil || n != 500 {
		t.Fatalf("rows=%d err=%v, want exactly 500 (no duplicates, no losses)", n, err)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM sales WHERE id >= 300")
	if err != nil || res.Rows[0][0].Int() != 200 {
		t.Fatalf("interrupted batch count %v err %v, want 200", res, err)
	}
}

// TestNetClusterIDsSeededRandomly: distributed query IDs key shuffle
// inboxes and DML tokens on shared long-lived servers, so two
// coordinator processes (or one restarted) must not mint the same IDs.
func TestNetClusterIDsSeededRandomly(t *testing.T) {
	a, _, _ := startNetCluster(t, 1, 1)
	b, _, _ := startNetCluster(t, 1, 1)
	if x, y := a.mintID(), b.mintID(); x == y {
		t.Fatalf("two coordinators minted the same ID %d", x)
	}
}

// TestNetClusterShuffleJoinFailoverDrops kills a node, runs a shuffle
// join (the statement completes on survivors via retry or gather
// fallback), and checks no shuffle inboxes linger on the surviving
// servers afterwards: the abandoned attempt's qid must be dropped
// cluster-wide, not accumulate for the process lifetime.
func TestNetClusterShuffleJoinFailoverDrops(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 3)
	seedNetSales(t, c, 200)
	if err := c.CreateTable("regions", types.Schema{
		{Name: "name", Kind: types.KindString},
		{Name: "manager", Kind: types.KindString, Nullable: true},
	}, TableOptions{DistributeBy: "name"}); err != nil {
		t.Fatalf("create regions: %v", err)
	}
	if err := c.Insert("regions", []types.Row{
		{types.NewString("north"), types.NewString("ada")},
		{types.NewString("south"), types.NewString("bob")},
		{types.NewString("east"), types.NewString("cho")},
		{types.NewString("west"), types.NewString("dee")},
	}); err != nil {
		t.Fatalf("insert regions: %v", err)
	}

	servers[1].Close()

	res, err := c.Query("SELECT s.region, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region")
	if err != nil {
		t.Fatalf("join after node death: %v", err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	if total != 200 {
		t.Fatalf("post-failover join count %d, want 200", total)
	}
	// Both surviving routers must hold zero inboxes as soon as the query
	// returns: the failed attempt's qid via the coordinator's drop
	// broadcast, the successful attempt's via per-partition drops that
	// run before each join fragment replies.
	for _, i := range []int{0, 2} {
		if n := servers[i].Router().InboxCount(); n > 0 {
			t.Fatalf("server %d still holds %d shuffle inboxes", i, n)
		}
	}
}

// TestNetClusterShuffleJoinLeavesNoInboxes: a join fragment drops its
// partition's shuffle inboxes before it replies, so none is left on any
// server the moment a shuffle join returns — no settle window needed.
func TestNetClusterShuffleJoinLeavesNoInboxes(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedNetSales(t, c, 300)
	if err := c.CreateTable("regions", types.Schema{
		{Name: "name", Kind: types.KindString},
		{Name: "manager", Kind: types.KindString, Nullable: true},
	}, TableOptions{DistributeBy: "name"}); err != nil {
		t.Fatalf("create regions: %v", err)
	}
	if err := c.Insert("regions", []types.Row{
		{types.NewString("north"), types.NewString("ada")},
		{types.NewString("south"), types.NewString("bob")},
	}); err != nil {
		t.Fatalf("insert regions: %v", err)
	}
	for i := 0; i < 5; i++ {
		before := c.Stats().ShuffleJoins
		if _, err := c.Query("SELECT r.manager, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name GROUP BY r.manager"); err != nil {
			t.Fatalf("join: %v", err)
		}
		if c.Stats().ShuffleJoins != before+1 {
			t.Fatal("join did not take the shuffle path")
		}
		inboxes := 0
		for _, srv := range servers {
			inboxes += srv.Router().InboxCount()
		}
		if inboxes != 0 {
			t.Fatalf("run %d: %d shuffle inboxes outlived the join", i, inboxes)
		}
	}
}

// TestNetClusterWriteErrorFailsDML: a shard that cannot persist a
// statement's effects must fail the statement instead of acknowledging
// it. The shard's applied-log path is a directory, so reading and
// replacing the log both fail on the dir-backed filesystem. (A
// read-only directory would not stop a process running as root.)
func TestNetClusterWriteErrorFailsDML(t *testing.T) {
	fs, err := clusterfs.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, servers, err := StartLocal(testNodes("nodeA", "nodeB"), 2, fs)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(func() { CloseServers(servers) })
	t.Cleanup(c.Close)
	seedNetSales(t, c, 2)
	applied := filepath.Join(fs.Dir(), "shards", "0000", "applied")
	if err := os.Remove(applied); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.Mkdir(applied, 0o755); err != nil {
		t.Fatal(err)
	}
	// region is not the distribution column, so the UPDATE reaches both
	// shards; exactly one row matches.
	res, err := c.Query("UPDATE sales SET amount = 7 WHERE region = 'north'")
	if err == nil {
		t.Fatalf("UPDATE on an unwritable shard was acknowledged: %d rows affected", res.RowsAffected)
	}
}

// TestNetClusterRejoinReusesNodeSlot: a node that fails and rejoins
// under its old name takes its old slot back, so repeated cycles keep
// the node list and the resulting placement fixed.
func TestNetClusterRejoinReusesNodeSlot(t *testing.T) {
	c, servers, fs := startNodes(t, 8, "A", "B", "C", "D")
	want := c.Assignment()
	victim := servers[3]
	for cycle := 0; cycle < 3; cycle++ {
		victim.Close()
		if err := c.FailNode("D"); err != nil {
			t.Fatalf("cycle %d: fail: %v", cycle, err)
		}
		nodes, srvs := startServers(t, fs, "D")
		if err := c.AddNode(nodes[0]); err != nil {
			t.Fatalf("cycle %d: rejoin: %v", cycle, err)
		}
		victim = srvs[0]
		if n := len(c.nodes); n != 4 {
			t.Fatalf("cycle %d: %d node entries, want 4", cycle, n)
		}
		if got := c.Assignment(); got != want {
			t.Fatalf("cycle %d: assignment %q, want %q", cycle, got, want)
		}
	}
}

// TestNetClusterGrowShrink exercises elastic re-shard: a new node
// adopts existing shards; removing it hands them back.
func TestNetClusterGrowShrink(t *testing.T) {
	c, _, fs := startNetCluster(t, 2, 4)
	seedNetSales(t, c, 200)

	nodes, extras := startServers(t, fs, "nodeC")
	extra := extras[0]
	if err := c.AddNode(nodes[0]); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := len(extra.Shards()); got == 0 {
		t.Fatal("grown node adopted no shards")
	}
	if n, err := c.Rows("sales"); err != nil || n != 200 {
		t.Fatalf("rows after grow=%d err=%v", n, err)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM sales")
	if err != nil || res.Rows[0][0].Int() != 200 {
		t.Fatalf("count after grow: %v %v", res, err)
	}

	if err := c.RemoveNode("nodeC"); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := len(extra.Shards()); got != 0 {
		t.Fatalf("shrunk node still hosts %d shards", got)
	}
	if n, err := c.Rows("sales"); err != nil || n != 200 {
		t.Fatalf("rows after shrink=%d err=%v", n, err)
	}
	if st := c.Stats(); st.Reshards != 2 {
		t.Fatalf("reshards %d, want 2", st.Reshards)
	}
}

// TestNetClusterManifestRestore reopens a coordinator over the same
// clusterfs: tables and data must survive without re-registration.
func TestNetClusterManifestRestore(t *testing.T) {
	c, servers, fs := startNetCluster(t, 2, 2)
	seedNetSales(t, c, 100)
	c.Close()

	nodes := []NetNode{
		{Name: "nodeA", Addr: servers[0].Addr(), Cores: 4, MemBytes: 256 << 20},
		{Name: "nodeB", Addr: servers[1].Addr(), Cores: 4, MemBytes: 256 << 20},
	}
	c2, err := OpenNetCluster(nodes, fs)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if n, err := c2.Rows("sales"); err != nil || n != 100 {
		t.Fatalf("rows=%d err=%v", n, err)
	}
	res, err := c2.Query("SELECT COUNT(*) AS n FROM sales")
	if err != nil || res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after reopen: %v %v", res, err)
	}
}

// TestNetClusterSQLSurface drives DDL/DML/query entirely through SQL.
func TestNetClusterSQLSurface(t *testing.T) {
	c, _, _ := startNetCluster(t, 2, 2)
	if _, err := c.Query("CREATE TABLE kv (k INT, v VARCHAR(10))"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Query("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM kv")
	if err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("count: %v %v", res, err)
	}
	if _, err := c.Query("DELETE FROM kv WHERE k = 2"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	res, err = c.Query("SELECT COUNT(*) AS n FROM kv")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Fatalf("count after delete: %v %v", res, err)
	}
	if _, err := c.Query("DROP TABLE kv"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM kv"); err == nil {
		t.Fatal("query after drop must fail")
	}
}

// TestFigure9Failover reproduces the paper's Figure 9: 4 servers × 6
// shards; server D fails; A, B, C now serve 8 shards each and answer
// identically; D rejoins on a fresh server and the balance returns.
func TestFigure9Failover(t *testing.T) {
	c, servers, fs := startNodes(t, 24, "A", "B", "C", "D")
	seedNetSales(t, c, 4800)
	want := queryRow(t, c, `SELECT COUNT(*), SUM(amount) FROM sales`)
	check := func(stage, assignment string) {
		t.Helper()
		if got := c.Assignment(); got != assignment {
			t.Fatalf("%s assignment %q, want %q", stage, got, assignment)
		}
		if got := queryRow(t, c, `SELECT COUNT(*), SUM(amount) FROM sales`); got != want {
			t.Fatalf("%s: COUNT/SUM %s, want %s", stage, got, want)
		}
	}
	check("initial", "A:6 B:6 C:6 D:6")
	servers[3].Close()
	if err := c.FailNode("D"); err != nil {
		t.Fatal(err)
	}
	check("post-failover", "A:8 B:8 C:8")
	nodes, _ := startServers(t, fs, "D")
	if err := c.AddNode(nodes[0]); err != nil {
		t.Fatal(err)
	}
	check("post-rejoin", "A:6 B:6 C:6 D:6")
	if st := c.Stats(); st.Failovers != 1 || st.Reshards != 1 {
		t.Fatalf("stats %+v, want 1 failover and 1 reshard", st)
	}
}

// queryRow runs a one-row query and renders its row.
func queryRow(t *testing.T, c *NetCluster, sql string) string {
	t.Helper()
	res, err := c.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return renderRows(res.Rows)
}

// TestElasticShrinkGuards: membership changes that would leave no node,
// or name an unknown or duplicate node, fail without changing the
// cluster.
func TestElasticShrinkGuards(t *testing.T) {
	c, _, _ := startNetCluster(t, 1, 2)
	if err := c.RemoveNode("nodeA"); err == nil || !strings.Contains(err.Error(), "cannot remove the last node") {
		t.Fatalf("removing the last node: err %v", err)
	}
	if err := c.FailNode("nodeA"); err == nil {
		t.Fatal("failing the last node must fail")
	}
	if err := c.FailNode("Z"); err == nil {
		t.Fatal("failing an unknown node must fail")
	}
	if got := c.Assignment(); got != "nodeA:2" {
		t.Fatalf("a refused change altered the cluster: %q", got)
	}
	if _, err := c.Query("CREATE TABLE t (a BIGINT NOT NULL)"); err != nil {
		t.Fatalf("cluster unusable after refused changes: %v", err)
	}
	c2, servers, _ := startNetCluster(t, 2, 4)
	dup := NetNode{Name: "nodeA", Addr: servers[1].Addr(), Cores: 4, MemBytes: 256 << 20}
	if err := c2.AddNode(dup); err == nil {
		t.Fatal("adding a live duplicate node must fail")
	}
}

// TestShardsOnNode: a node's server hosts exactly its assigned shards,
// and after it fails the survivors host them all.
func TestShardsOnNode(t *testing.T) {
	c, servers, _ := startNetCluster(t, 4, 24)
	if n := len(servers[0].Shards()); n != 6 {
		t.Fatalf("nodeA hosts %d shards, want 6", n)
	}
	servers[0].Close()
	if err := c.FailNode("nodeA"); err != nil {
		t.Fatal(err)
	}
	if n := len(servers[0].Shards()); n != 0 {
		t.Fatalf("failed node still hosts %d shards", n)
	}
	hosted := 0
	for _, srv := range servers[1:] {
		hosted += len(srv.Shards())
	}
	if hosted != 24 {
		t.Fatalf("survivors host %d shards, want 24", hosted)
	}
}

// TestSnapshotRestoreNewTopology exercises the §II.E portability flow:
// snapshot a loaded cluster's filesystem and reopen it on an entirely
// different topology (3 bigger nodes instead of 4). Queries answer
// identically and the restored cluster accepts writes, DDL and
// failover. No checkpoint step is needed: every acknowledged statement
// is already on the filesystem.
func TestSnapshotRestoreNewTopology(t *testing.T) {
	src, _, fs := startNodes(t, 24, "A", "B", "C", "D")
	seedNetSales(t, src, 5000)
	dim := types.Schema{{Name: "region", Kind: types.KindString}, {Name: "zone", Kind: types.KindString}}
	if err := src.CreateTable("regions", dim, TableOptions{Replicated: true}); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert("regions", []types.Row{
		{types.NewString("north"), types.NewString("Z1")},
		{types.NewString("south"), types.NewString("Z2")},
	}); err != nil {
		t.Fatal(err)
	}
	want := queryRow(t, src, `SELECT COUNT(*), SUM(amount) FROM sales`)
	// "Copy the clustered filesystem and docker run on new hardware."
	snap := fs.Snapshot()
	nodes, servers := startServers(t, snap, "X", "Y", "Z")
	for i := range nodes {
		nodes[i].Cores, nodes[i].MemBytes = 16, 512<<20
	}
	restored, err := OpenNetCluster(nodes, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Assignment(); got != "X:8 Y:8 Z:8" {
		t.Fatalf("restored assignment %q", got)
	}
	if got := queryRow(t, restored, `SELECT COUNT(*), SUM(amount) FROM sales`); got != want {
		t.Fatalf("restore changed results: %s vs %s", got, want)
	}
	// north + south halves join the replicated dimension.
	if got := queryRow(t, restored, `SELECT COUNT(*) FROM sales s JOIN regions r ON s.region = r.region`); got != "2500\n" {
		t.Fatalf("restored join %q", got)
	}
	if _, err := restored.Query(`INSERT INTO sales VALUES (99999, 'north', 1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Query(`CREATE TABLE fresh (a BIGINT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	servers[2].Close()
	if err := restored.FailNode("Z"); err != nil {
		t.Fatal(err)
	}
	if got := queryRow(t, restored, `SELECT COUNT(*) FROM sales`); got != "5001\n" {
		t.Fatalf("post-restore failover count %q", got)
	}
	if _, err := OpenNetCluster(nil, snap); err == nil {
		t.Fatal("restore with no nodes must fail")
	}
	if _, err := OpenNetCluster(nodes[:1], clusterfs.New()); err == nil {
		t.Fatal("restore without manifest must fail")
	}
}
