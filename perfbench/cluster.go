package main

import (
	"fmt"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// Topology of the measured cluster: the netClusterOf shape from
// internal/bench (3 nodes, 6 shards, 4 cores and 256 MiB declared per
// node) over the in-memory clusterfs backend.
const (
	clusterNodes  = 3
	clusterShards = 6
	nodeCores     = 4
	nodeMemBytes  = 256 << 20
	fsBackend     = "clusterfs.New (in-memory, no flush)"
)

// dataset is the Financial workload's generated input, shared by every
// set-up repetition and the oracle of one run. Once both are loaded,
// compact keeps only what the point checks read, so the generated rows
// do not sit in the heap the measured phases garbage-collect.
type dataset struct {
	accounts, txns   []types.Row
	accSch, txnSch   types.Schema
	nAccounts, nTxns int
	amount           []types.Value // per txn_id, for point SELECT checks
	status           []string
}

func newDataset(scale int, seed int64) *dataset {
	fin := workload.NewFinancial(scale, seed)
	d := &dataset{}
	for _, t := range fin.Tables() {
		switch t.Name {
		case "accounts":
			d.accSch = t.Schema
		case "transactions":
			d.txnSch = t.Schema
		}
	}
	// Accounts first: both draw from the generator's one RNG.
	d.accounts = fin.Accounts()
	d.txns = fin.Transactions()
	d.nAccounts, d.nTxns = len(d.accounts), len(d.txns)
	return d
}

// rows is every row a set-up loads.
func (d *dataset) rows() int { return d.nTxns + 2*d.nAccounts }

func (d *dataset) compact() {
	d.amount = make([]types.Value, d.nTxns)
	d.status = make([]string, d.nTxns)
	for i, r := range d.txns {
		d.amount[i], d.status[i] = r[3], r[5].String()
	}
	d.accounts, d.txns = nil, nil
}

// cluster is a NetCluster coordinator over in-process shard servers on
// loopback TCP, all sharing one clustered filesystem.
type cluster struct {
	fs      *clusterfs.FS
	nc      *mpp.NetCluster
	names   []string
	servers map[string]*shardrpc.Server // current server per node name
}

func nodeName(i int) string { return fmt.Sprintf("node%c", 'A'+i) }

// bootCluster starts nNodes shard servers and a coordinator with
// nShards shards.
func bootCluster(nNodes, nShards int) (*cluster, error) {
	c := &cluster{fs: clusterfs.New(), servers: make(map[string]*shardrpc.Server)}
	var nodes []mpp.NetNode
	for i := 0; i < nNodes; i++ {
		name := nodeName(i)
		srv, err := c.startServer(name)
		if err != nil {
			c.close()
			return nil, err
		}
		c.names = append(c.names, name)
		nodes = append(nodes, netNode(name, srv))
	}
	nc, err := mpp.NewNetCluster(nodes, nShards, c.fs)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	c.nc = nc
	return c, nil
}

func netNode(name string, srv *shardrpc.Server) mpp.NetNode {
	return mpp.NetNode{Name: name, Addr: srv.Addr(), Cores: nodeCores, MemBytes: nodeMemBytes}
}

// startServer starts a fresh shard server for a node name, replacing
// the map entry of any previous (killed) server under that name.
func (c *cluster) startServer(name string) (*shardrpc.Server, error) {
	srv := shardrpc.NewServer(name, c.fs)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	c.servers[name] = srv
	return srv, nil
}

// loadChunk is the rows per bulk Insert call; chunking bounds the load's
// transient memory (one 400K-row call peaks near 1 GB of heap).
const loadChunk = 50_000

// load runs the DDL and bulk-loads the dataset: transactions
// distributed by txn_id, accounts replicated, and accounts_d
// distributed by customer so that joins on account_id must shuffle.
func (c *cluster) load(d *dataset) error {
	ddl := []struct {
		name string
		sch  types.Schema
		opts mpp.TableOptions
	}{
		{"transactions", d.txnSch, mpp.TableOptions{DistributeBy: "txn_id"}},
		{"accounts", d.accSch, mpp.TableOptions{Replicated: true}},
		{"accounts_d", d.accSch, mpp.TableOptions{DistributeBy: "customer"}},
	}
	for _, t := range ddl {
		if err := c.nc.CreateTable(t.name, t.sch, t.opts); err != nil {
			return fmt.Errorf("create %s: %w", t.name, err)
		}
	}
	for _, t := range []struct {
		name string
		rows []types.Row
	}{{"accounts", d.accounts}, {"accounts_d", d.accounts}, {"transactions", d.txns}} {
		for lo := 0; lo < len(t.rows); lo += loadChunk {
			if err := c.nc.Insert(t.name, t.rows[lo:min(lo+loadChunk, len(t.rows))]); err != nil {
				return fmt.Errorf("load %s: %w", t.name, err)
			}
		}
	}
	return nil
}

// alive returns each node's current server. Between a kill and the
// restart that node's entry is the closed server, so callers run only
// outside failover cycles.
func (c *cluster) alive() []*shardrpc.Server {
	var out []*shardrpc.Server
	for _, name := range c.names {
		out = append(out, c.servers[name])
	}
	return out
}

// close stops the coordinator and every server; killed servers were
// closed already and Close is idempotent.
func (c *cluster) close() {
	if c.nc != nil {
		c.nc.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
}

const countSQL = "SELECT COUNT(*) FROM transactions"
