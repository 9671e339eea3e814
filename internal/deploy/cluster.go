package deploy

import (
	"fmt"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
)

// ClusterDeployment is the outcome of deploying dashDB Local across a set
// of hosts: a running MPP cluster (one in-process shard server per host)
// plus the simulated deployment timeline (experiment F-A: "consistently
// able to deploy to large clusters in under 30 minutes, fully
// configured").
type ClusterDeployment struct {
	Cluster  *mpp.NetCluster
	Servers  []*shardrpc.Server
	Timeline Timeline
}

// Close shuts the coordinator and every shard server down.
func (d *ClusterDeployment) Close() {
	d.Cluster.Close()
	mpp.CloseServers(d.Servers)
}

// DeployCluster pulls and runs the image on every host in parallel (the
// timeline takes the slowest host, since hosts deploy concurrently), then
// forms the MPP cluster over the shared filesystem with auto-configured
// shard fan-out: nodes × ShardsPerNode, capped at the cluster's total
// cores. Each node is given its host's full RAM; the cluster divides it
// into per-shard heaps.
func DeployCluster(reg *Registry, hosts []*Host, imageName, version string, fs *clusterfs.FS) (*ClusterDeployment, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("deploy: no hosts")
	}
	var containers []*Container
	var slowest Timeline
	for _, h := range hosts {
		c, tl, err := h.Run(reg, imageName, version)
		if err != nil {
			return nil, fmt.Errorf("deploy: host %s: %w", h.Name, err)
		}
		containers = append(containers, c)
		if tl.Total() > slowest.Total() {
			slowest = tl
		}
	}
	// Cluster formation: node discovery + shard layout + catalog init.
	formation := 30*time.Second + time.Duration(len(hosts))*2*time.Second
	slowest.Phases = append(slowest.Phases, Phase{Name: "cluster formation", Duration: formation})

	var nodes []mpp.NetNode
	shardsPerNode := 1
	for _, c := range containers {
		nodes = append(nodes, mpp.NetNode{
			Name:     c.Host.Name,
			Cores:    c.Host.HW.Cores,
			MemBytes: c.Host.HW.RAMBytes,
		})
		shardsPerNode = max(shardsPerNode, c.Config.ShardsPerNode)
	}
	cluster, servers, err := mpp.StartLocal(nodes, mpp.ShardCount(nodes, shardsPerNode), fs)
	if err != nil {
		return nil, err
	}
	return &ClusterDeployment{Cluster: cluster, Servers: servers, Timeline: slowest}, nil
}
