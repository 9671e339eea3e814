package mpp

import (
	"fmt"

	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/shardrpc"
)

// StartServers boots one in-process shard server per node on a free
// loopback port, all over fs, and returns the nodes with Addr filled in.
// On error every server already started is closed.
func StartServers(nodes []NetNode, fs *clusterfs.FS) ([]NetNode, []*shardrpc.Server, error) {
	out := make([]NetNode, len(nodes))
	var servers []*shardrpc.Server
	for i, n := range nodes {
		srv := shardrpc.NewServer(n.Name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			CloseServers(servers)
			return nil, nil, err
		}
		servers = append(servers, srv)
		n.Addr = srv.Addr()
		out[i] = n
	}
	return out, servers, nil
}

// StartLocal boots in-process shard servers for nodes (see StartServers)
// and a coordinator that bootstraps nShards shards across them.
func StartLocal(nodes []NetNode, nShards int, fs *clusterfs.FS) (*NetCluster, []*shardrpc.Server, error) {
	nodes, servers, err := StartServers(nodes, fs)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewNetCluster(nodes, nShards, fs)
	if err != nil {
		CloseServers(servers)
		return nil, nil, err
	}
	return c, servers, nil
}

// ShardCount is the shard count for a cluster over nodes with
// shardsPerNode shards per server, capped at the nodes' total cores (the
// paper: "several factors larger than the number of servers, though not
// larger than the cumulative cores").
func ShardCount(nodes []NetNode, shardsPerNode int) int {
	totalCores := 0
	for _, n := range nodes {
		totalCores += n.Cores
	}
	return shardCount(len(nodes), shardsPerNode, totalCores)
}

// shardCount applies the ShardCount rule to a node count and core total.
func shardCount(nNodes, shardsPerNode, totalCores int) int {
	n := nNodes * max(1, shardsPerNode)
	if totalCores > 0 {
		n = min(n, totalCores)
	}
	return n
}

// CloseServers closes every server in the list.
func CloseServers(servers []*shardrpc.Server) {
	for _, srv := range servers {
		srv.Close()
	}
}

// ShardEngines returns the engine of every shard 0..nShards-1 from the
// in-process servers hosting them, in shard order (the collocated
// engines Spark workers read). Engines are reopened whenever shard
// membership changes, so callers fetch them again after each change.
func ShardEngines(nShards int, servers []*shardrpc.Server) ([]*core.DB, error) {
	out := make([]*core.DB, nShards)
	for s := range out {
		for _, srv := range servers {
			if db, ok := srv.Engine(s); ok {
				out[s] = db
				break
			}
		}
		if out[s] == nil {
			return nil, fmt.Errorf("mpp: shard %d is not hosted by an in-process server", s)
		}
	}
	return out, nil
}
