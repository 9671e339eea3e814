// Command elasticity walks through §II.E and Figure 9: deploy a 4-node
// cluster (24 shards), fail server D and watch the shards re-associate
// over the survivors while queries keep answering identically, then
// shrink deliberately and grow back — all against data living on the
// shared clustered filesystem.
package main

import (
	"fmt"
	"log"

	"dashdb"
)

func main() {
	fmt.Println("deploying 4-node cluster (simulated docker run on each host)...")
	cl, err := dashdb.Deploy([]dashdb.HostSpec{
		{Name: "A", Cores: 24, RAMBytes: 256 << 30},
		{Name: "B", Cores: 24, RAMBytes: 256 << 30},
		{Name: "C", Cores: 24, RAMBytes: 256 << 30},
		{Name: "D", Cores: 24, RAMBytes: 256 << 30},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("deployed in %.1f simulated minutes (paper bound: 30)\n", cl.DeployTime.Minutes())
	fmt.Println(cl.Timeline)
	fmt.Printf("\nshard association: %s\n\n", cl.Assignment())

	must(cl.Exec(`CREATE TABLE metrics (id BIGINT NOT NULL, v DOUBLE)`))
	var rows []dashdb.Row
	for i := 0; i < 50000; i++ {
		rows = append(rows, dashdb.Row{dashdb.NewInt(int64(i)), dashdb.NewFloat(float64(i % 1000))})
	}
	if err := cl.Insert("metrics", rows); err != nil {
		log.Fatal(err)
	}

	baseline := query(cl)
	fmt.Printf("baseline: COUNT=%s SUM=%s\n\n", baseline.Rows[0][0], baseline.Rows[0][1])

	fmt.Println("== Figure 9: server D fails ==")
	if err := cl.FailNode("D"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard association after failover: %s\n", cl.Assignment())
	after := query(cl)
	fmt.Printf("query after failover: COUNT=%s SUM=%s (identical: %v)\n\n",
		after.Rows[0][0], after.Rows[0][1],
		baseline.Rows[0][0].String() == after.Rows[0][0].String())

	fmt.Println("== elastic contraction: remove C deliberately ==")
	if err := cl.RemoveNode("C"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard association: %s\n", cl.Assignment())
	after = query(cl)
	fmt.Printf("query on 2 nodes: COUNT=%s (still correct)\n\n", after.Rows[0][0])

	fmt.Println("== elastic growth: reinstate D and C ==")
	must0(cl.AddNode(dashdb.NodeSpec{Name: "D", Cores: 6, MemBytes: 64 << 30}))
	must0(cl.AddNode(dashdb.NodeSpec{Name: "C", Cores: 6, MemBytes: 64 << 30}))
	fmt.Printf("shard association: %s\n", cl.Assignment())
	after = query(cl)
	fmt.Printf("query on 4 nodes: COUNT=%s SUM=%s\n\n", after.Rows[0][0], after.Rows[0][1])

	fmt.Println("== portability: copy the filesystem, redeploy on 2 big nodes ==")
	// No checkpoint step: every acknowledged statement is already on the
	// clustered filesystem.
	moved, err := dashdb.Restore([]dashdb.NodeSpec{
		{Name: "P", Cores: 48, MemBytes: 512 << 30},
		{Name: "Q", Cores: 48, MemBytes: 512 << 30},
	}, cl.FSSnapshot())
	if err != nil {
		log.Fatal(err)
	}
	defer moved.Close()
	fmt.Printf("restored association: %s\n", moved.Assignment())
	after = query(moved)
	fmt.Printf("query on restored cluster: COUNT=%s SUM=%s\n", after.Rows[0][0], after.Rows[0][1])
}

func query(cl *dashdb.Cluster) *dashdb.Result {
	r, err := cl.Exec(`SELECT COUNT(*), SUM(v) FROM metrics`)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func must(r *dashdb.Result, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must0(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
