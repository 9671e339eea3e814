package hybrid

import (
	"testing"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
	"dashdb/internal/types"
)

func onPremCluster(t *testing.T) *mpp.NetCluster {
	t.Helper()
	cl, servers, err := mpp.StartLocal([]mpp.NetNode{
		{Name: "A", Cores: 4, MemBytes: 32 << 20},
		{Name: "B", Cores: 4, MemBytes: 32 << 20},
	}, 4, clusterfs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mpp.CloseServers(servers) })
	t.Cleanup(cl.Close)
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
	if err := cl.CreateTable("sales", schema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatal(err)
	}
	dim := types.Schema{{Name: "region", Kind: types.KindString}, {Name: "zone", Kind: types.KindString}}
	if err := cl.CreateTable("regions", dim, mpp.TableOptions{Replicated: true}); err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%4]),
			types.NewFloat(float64(i % 500)),
		})
	}
	if err := cl.Insert("sales", rows); err != nil {
		t.Fatal(err)
	}
	var dimRows []types.Row
	for i, r := range regions {
		zone := "Z1"
		if i >= 2 {
			zone = "Z2"
		}
		dimRows = append(dimRows, types.Row{types.NewString(r), types.NewString(zone)})
	}
	if err := cl.Insert("regions", dimRows); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestPlans(t *testing.T) {
	if _, err := NewCloudService("mainframe"); err == nil {
		t.Fatal("unknown plan must fail")
	}
	c, err := NewCloudService(PlanEntry)
	if err != nil || c.Plan() != PlanEntry {
		t.Fatal(err)
	}
}

func TestSyncToCloudHotBackup(t *testing.T) {
	cl := onPremCluster(t)
	cloud, err := NewCloudService(PlanEnterprise)
	if err != nil {
		t.Fatal(err)
	}
	tables, rows, err := SyncToCloud(cl, cloud)
	if err != nil {
		t.Fatal(err)
	}
	if tables != 2 || rows != 3004 {
		t.Fatalf("synced %d tables %d rows", tables, rows)
	}
	// The clone answers analytics identically — the DR guarantee.
	for _, q := range []string{
		`SELECT COUNT(*), SUM(amount) FROM sales`,
		`SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY region`,
		`SELECT r.zone, SUM(s.amount) FROM sales s JOIN regions r ON s.region = r.region GROUP BY r.zone ORDER BY r.zone`,
	} {
		same, err := VerifyPortability(cl, cloud, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !same {
			t.Fatalf("results diverge for %q", q)
		}
	}
	// Re-sync replaces (idempotent DR refresh).
	if _, _, err := SyncToCloud(cl, cloud); err != nil {
		t.Fatal(err)
	}
	r, _ := cloud.Session().Exec(`SELECT COUNT(*) FROM sales`)
	if r.Rows[0][0].Int() != 3000 {
		t.Fatalf("re-sync duplicated rows: %v", r.Rows[0])
	}
}

func TestSyncFromCloudPrototypeFlow(t *testing.T) {
	// Develop in the cloud...
	cloud, err := NewCloudService(PlanEntry)
	if err != nil {
		t.Fatal(err)
	}
	sess := cloud.Session()
	if _, err := sess.Exec(`CREATE TABLE model_scores (id BIGINT NOT NULL, score DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`INSERT INTO model_scores VALUES (1, 0.9), (2, 0.1), (3, 0.5)`); err != nil {
		t.Fatal(err)
	}
	// ...then harden on-premises.
	cl := onPremCluster(t)
	n, err := SyncFromCloud(cloud, cl, "model_scores", mpp.TableOptions{DistributeBy: "id"})
	if err != nil || n != 3 {
		t.Fatalf("synced %d err %v", n, err)
	}
	r, err := cl.Query(`SELECT COUNT(*) FROM model_scores WHERE score > 0.4`)
	if err != nil || r.Rows[0][0].Int() != 2 {
		t.Fatalf("%v err %v", r, err)
	}
	// Missing cloud table errors.
	if _, err := SyncFromCloud(cloud, cl, "ghost", mpp.TableOptions{}); err == nil {
		t.Fatal("missing table must fail")
	}
}

func TestVerifyPortabilityDetectsDivergence(t *testing.T) {
	cl := onPremCluster(t)
	cloud, _ := NewCloudService(PlanEntry)
	SyncToCloud(cl, cloud)
	// Mutate the cloud copy.
	if _, err := cloud.Session().Exec(`DELETE FROM sales WHERE id = 0`); err != nil {
		t.Fatal(err)
	}
	same, err := VerifyPortability(cl, cloud, `SELECT COUNT(*) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("divergence not detected")
	}
}
