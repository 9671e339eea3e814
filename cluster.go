package dashdb

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"strings"
	"sync"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/deploy"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/spark"
)

// NodeSpec describes one cluster server: its name, its hardware, and the
// address of its shard server. An empty Addr means "start one
// in-process".
type NodeSpec = mpp.NetNode

// TableOptions control MPP table placement.
type TableOptions = mpp.TableOptions

// Cluster is a dashDB Local MPP cluster: a coordinator over shard
// servers sharing one clustered filesystem. Queries scatter over RPC,
// distributed joins run through the partitioned-hash shuffle, every
// acknowledged statement is persisted, and node failures re-associate
// shards over the survivors (§II.E, Figure 9). Deploy, NewCluster and
// Restore run the shard servers in-process; ConnectCluster attaches to
// running ones (dashdb-local -shard-listen).
type Cluster struct {
	inner *mpp.NetCluster
	fs    *clusterfs.FS
	// DeployTime is the simulated wall-clock time the deployment took
	// (the paper's < 30 minutes claim, experiment F-A).
	DeployTime time.Duration
	// Timeline is the per-phase deployment schedule.
	Timeline deploy.Timeline

	mu         sync.Mutex
	servers    []*shardrpc.Server // in-process shard servers of live nodes
	dispatcher *spark.Dispatcher
}

// HostSpec describes one deployment host for Deploy.
type HostSpec struct {
	Name     string
	Cores    int
	RAMBytes int64
}

// Deploy simulates the paper's one-command cluster deployment: pull the
// dashDB Local image to every host, start containers, auto-configure each
// engine from its hardware, and form the MPP cluster over a simulated
// clustered filesystem. The returned cluster is immediately usable.
func Deploy(hosts []HostSpec) (*Cluster, error) {
	reg := deploy.NewRegistry()
	reg.Push(deploy.Image{Name: "dashdb-local", Version: "1.0", SizeBytes: 4 << 30})
	var dh []*deploy.Host
	for _, h := range hosts {
		dh = append(dh, deploy.NewHost(h.Name, deploy.Hardware{
			Cores:        h.Cores,
			RAMBytes:     h.RAMBytes,
			StorageBytes: 1 << 40,
		}))
	}
	fs := clusterfs.New()
	dep, err := deploy.DeployCluster(reg, dh, "dashdb-local", "1.0", fs)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		inner:      dep.Cluster,
		fs:         fs,
		servers:    dep.Servers,
		DeployTime: dep.Timeline.Total(),
		Timeline:   dep.Timeline,
	}, nil
}

// NewCluster forms a cluster directly (no deployment simulation) over
// in-process shard servers: len(nodes) × shardsPerNode shards, capped at
// the nodes' total cores.
func NewCluster(nodes []NodeSpec, shardsPerNode int) (*Cluster, error) {
	fs := clusterfs.New()
	inner, servers, err := mpp.StartLocal(nodes, mpp.ShardCount(nodes, shardsPerNode), fs)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, fs: fs, servers: servers}, nil
}

// Restore redeploys a cluster from a clustered filesystem (usually an
// FSSnapshot of another cluster) onto any node topology, starting one
// in-process shard server per node. The filesystem's manifest fixes the
// shard count and tables.
func Restore(nodes []NodeSpec, fs *clusterfs.FS) (*Cluster, error) {
	nodes, servers, err := mpp.StartServers(nodes, fs)
	if err != nil {
		return nil, err
	}
	inner, err := mpp.OpenNetCluster(nodes, fs)
	if err != nil {
		mpp.CloseServers(servers)
		return nil, err
	}
	return &Cluster{inner: inner, fs: fs, servers: servers}, nil
}

// ConnectCluster forms a coordinator over running shard servers. When
// the clustered filesystem holds a manifest the existing tables (and
// shard count) are restored; when it holds none a fresh cluster with
// nShards shards is bootstrapped. Any other failure is returned.
func ConnectCluster(nodes []NodeSpec, nShards int, fs *clusterfs.FS) (*Cluster, error) {
	inner, err := mpp.OpenNetCluster(nodes, fs)
	if errors.Is(err, iofs.ErrNotExist) {
		inner, err = mpp.NewNetCluster(nodes, nShards, fs)
	}
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, fs: fs}, nil
}

// Exec parses and executes a SQL statement cluster-wide (ANSI dialect).
func (c *Cluster) Exec(sqlText string) (*Result, error) { return c.inner.Query(sqlText) }

// ExecDialect is Exec under an explicit dialect.
func (c *Cluster) ExecDialect(sqlText string, d Dialect) (*Result, error) {
	return c.inner.QueryDialect(sqlText, d)
}

// CreateTable creates a table with explicit placement (distribution key
// or replication), which the SQL path cannot express.
func (c *Cluster) CreateTable(name string, schema Schema, opts TableOptions) error {
	return c.inner.CreateTable(name, schema, opts)
}

// Insert routes rows to shards by the table's distribution key.
func (c *Cluster) Insert(table string, rows []Row) error { return c.inner.Insert(table, rows) }

// Rows returns a table's cluster-wide live row count.
func (c *Cluster) Rows(table string) (int, error) { return c.inner.Rows(table) }

// Assignment renders the current shard→node balance, e.g. "A:6 B:6 C:6".
func (c *Cluster) Assignment() string { return c.inner.Assignment() }

// FailNode simulates a server failure: the node's in-process shard
// server (if any) stops, its shards re-associate across the survivors
// (Figure 9) and queries keep working.
func (c *Cluster) FailNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive(name) {
		return fmt.Errorf("dashdb: no alive node %s", name)
	}
	if len(c.inner.Nodes()) == 1 {
		return fmt.Errorf("dashdb: cannot fail the last node")
	}
	// Stop the server before survivors adopt its shards: a server
	// persists what it hosts on Close, which must not overwrite state
	// the adopters have moved on from. A statement that reaches the
	// stopped server in between fails the node over itself, which is
	// the one failure (ErrNoAliveNode) that is not an error here.
	c.stopServerLocked(name)
	if err := c.inner.FailNode(name); err != nil && !errors.Is(err, mpp.ErrNoAliveNode) {
		return err
	}
	return c.rebindLocked()
}

// alive reports whether the coordinator counts the node as alive.
func (c *Cluster) alive(name string) bool {
	for _, n := range c.inner.Nodes() {
		if strings.EqualFold(n.Name, name) {
			return true
		}
	}
	return false
}

// RemoveNode performs elastic contraction: the node's shards are
// released and re-adopted by the remaining nodes, then its in-process
// shard server (if any) stops.
func (c *Cluster) RemoveNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.RemoveNode(name); err != nil {
		return err
	}
	c.stopServerLocked(name)
	return c.rebindLocked()
}

// AddNode performs elastic growth or reinstates a repaired node: the
// node adopts a proportional share of the shards. With an empty Addr an
// in-process shard server is started for it.
func (c *Cluster) AddNode(spec NodeSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if spec.Addr != "" && c.dispatcher != nil {
		// Spark workers read shard engines in-process, so every node of
		// a cluster running Spark must be an in-process one.
		return fmt.Errorf("dashdb: cannot add remote node %s while Spark runs", spec.Name)
	}
	var started []*shardrpc.Server
	if spec.Addr == "" {
		nodes, servers, err := mpp.StartServers([]NodeSpec{spec}, c.fs)
		if err != nil {
			return err
		}
		spec, started = nodes[0], servers
	}
	if err := c.inner.AddNode(spec); err != nil {
		mpp.CloseServers(started)
		return err
	}
	c.servers = append(c.servers, started...)
	return c.rebindLocked()
}

// stopServerLocked closes and forgets the named node's in-process shard
// server, if it has one.
func (c *Cluster) stopServerLocked(name string) {
	for i, srv := range c.servers {
		if strings.EqualFold(srv.Node(), name) {
			srv.Close()
			c.servers = append(c.servers[:i], c.servers[i+1:]...)
			return
		}
	}
}

// rebindLocked moves a started Spark runtime onto the shard engines the
// membership change just reopened.
func (c *Cluster) rebindLocked() error {
	if c.dispatcher == nil {
		return nil
	}
	engines, err := mpp.ShardEngines(c.inner.NShards(), c.servers)
	if err != nil {
		return err
	}
	return c.dispatcher.Rebind(engines)
}

// Internal exposes the coordinator for advanced integrations.
func (c *Cluster) Internal() *mpp.NetCluster { return c.inner }

// Spark returns (starting on first use) the integrated analytics runtime:
// the dispatcher with per-user cluster managers and shard-collocated
// workers of §II.D. It needs every shard hosted in-process (Deploy,
// NewCluster or Restore); the same dispatcher follows later membership
// changes, and AddNode refuses remote nodes while it runs.
func (c *Cluster) Spark() (*spark.Dispatcher, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dispatcher != nil {
		return c.dispatcher, nil
	}
	engines, err := mpp.ShardEngines(c.inner.NShards(), c.servers)
	if err != nil {
		return nil, err
	}
	d, err := spark.NewDispatcher(engines)
	if err != nil {
		return nil, err
	}
	c.dispatcher = d
	return d, nil
}

// Close releases the Spark runtime, the coordinator's connections and
// every in-process shard server (their shards stay on the clustered
// filesystem). Remote shard servers keep running.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dispatcher != nil {
		c.dispatcher.Close()
		c.dispatcher = nil
	}
	c.inner.Close()
	mpp.CloseServers(c.servers)
	c.servers = nil
}

// FSSnapshot deep-copies the clustered filesystem — the transport unit of
// §II.E's portability story ("copy the filesystem, deploy anywhere").
// Every acknowledged statement is already on it, so the copy is
// complete; Restore redeploys it.
func (c *Cluster) FSSnapshot() *clusterfs.FS { return c.fs.Snapshot() }
