// Package mpp implements the shared-nothing scale-out of Figure 2 and the
// elasticity/HA mechanics of §II.E and Figure 9. Data is hash-partitioned
// into a number of shards several factors larger than the number of
// servers; each shard is a full engine whose file-set lives on the
// clustered filesystem.
//
// NetCluster is the cluster: shards live behind shardrpc servers, every
// acknowledged statement is persisted, and failover, elastic shrink and
// elastic growth are all the same operation — re-associate shards over
// the current node set (minimal movement) and recompute per-shard memory
// and parallelism. StartLocal boots it over in-process servers; the root
// API, deployment, Spark, hybrid sync and the HA figures all run on it.
//
// Cluster is a static in-process scatter/gather harness kept only for
// Table 1 Tests 1–3: fixed shards, no persistence, no membership
// changes. It stays because per-statement persistence still costs too
// much for those tests. A port of Table 1 onto a loopback NetCluster
// measured Test 2 at 0.1x (gate > 0.5; 1.9x here), Test 3 at 0.8x
// (gate > 1; 2.0x here) and Test 1 at 1.2x (1.7x here).
// columnar.Table.SaveMeta was about half of Test 2's CPU, and persisting
// only the statement's target table still gave 0.2x. Table 1 moves once
// shards keep a redo log instead of rewriting table metadata per DML.
package mpp

import (
	"fmt"
	"strings"
	"sync"

	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// NodeSpec describes one server host of the Table 1 harness.
type NodeSpec struct {
	Name     string
	Cores    int
	MemBytes int64
}

// Shard is one data partition: a complete engine over its own file-set.
type Shard struct {
	ID int
	DB *core.DB
}

// TableOptions control MPP table placement.
type TableOptions struct {
	// DistributeBy names the hash-distribution column. Empty selects the
	// first column.
	DistributeBy string
	// Replicated stores a full copy on every shard (dimension tables),
	// making joins against it co-located.
	Replicated bool
}

// tableMeta is the coordinator's view of one table.
type tableMeta struct {
	schema  types.Schema
	distCol int
	repl    bool
	id      uint32 // storage id; set by coordinators that assign ids themselves
}

// Stats counts coordinator activity.
type Stats struct {
	FastPathQueries   uint64
	GatherPathQueries uint64
}

// Cluster is the in-process Table 1 harness: a coordinator over a fixed
// set of shard engines.
type Cluster struct {
	mu     sync.RWMutex
	shards []*Shard
	tables map[string]*tableMeta
	stats  Stats
	// reg is the cluster-level query history: per-shard telemetry records
	// merged by the coordinator after scatter/gather.
	reg *telemetry.Registry
}

// NewCluster builds a cluster over the node specs with shardsPerNode data
// shards per server (the paper: shard count "several factors larger than
// the number of servers, though not larger than the cumulative cores").
// Shards go round-robin over the nodes; each gets its node's memory and
// cores divided by the shards the node hosts.
func NewCluster(nodes []NodeSpec, shardsPerNode int, fs *clusterfs.FS) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mpp: cluster needs at least one node")
	}
	totalCores := 0
	for _, n := range nodes {
		totalCores += n.Cores
	}
	nShards := shardCount(len(nodes), shardsPerNode, totalCores)
	if fs == nil {
		fs = clusterfs.New()
	}
	c := &Cluster{
		tables: make(map[string]*tableMeta),
		reg:    telemetry.NewRegistry(telemetry.DefaultHistorySize),
	}
	perNode := make([]int, len(nodes))
	for i := 0; i < nShards; i++ {
		perNode[i%len(nodes)]++
	}
	for i := 0; i < nShards; i++ {
		node, hosted := nodes[i%len(nodes)], perNode[i%len(nodes)]
		c.shards = append(c.shards, &Shard{ID: i, DB: core.Open(core.Config{
			BufferPoolBytes: max(1<<20, int(node.MemBytes)/hosted),
			Parallelism:     max(1, node.Cores/hosted),
			Store:           fs.ShardStore(i),
		})})
	}
	return c, nil
}

// Shards returns the shard list (read-only use).
func (c *Cluster) Shards() []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Shard(nil), c.shards...)
}

// Stats returns coordinator counters.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// History returns the cluster's merged query-history records, oldest
// first.
func (c *Cluster) History() []telemetry.QueryRecord { return c.reg.History() }

// CreateTable creates a table on every shard and registers coordinator
// metadata.
func (c *Cluster) CreateTable(name string, schema types.Schema, opts TableOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("mpp: table %s already exists", name)
	}
	distCol := 0
	if opts.DistributeBy != "" {
		distCol = schema.ColumnIndex(opts.DistributeBy)
		if distCol < 0 {
			return fmt.Errorf("mpp: distribution column %s not in schema", opts.DistributeBy)
		}
	}
	for _, sh := range c.shards {
		if _, err := sh.DB.CreateTable(name, schema); err != nil {
			return err
		}
	}
	c.tables[key] = &tableMeta{schema: schema, distCol: distCol, repl: opts.Replicated}
	return nil
}

// DropTable removes a table cluster-wide.
func (c *Cluster) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("mpp: table %s does not exist", name)
	}
	delete(c.tables, key)
	for _, sh := range c.shards {
		if err := sh.DB.Catalog().DropTable(name); err != nil {
			return err
		}
	}
	return nil
}

// Insert routes rows to shards by the hash of the distribution key;
// replicated tables receive every row on every shard.
func (c *Cluster) Insert(table string, rows []types.Row) error {
	c.mu.RLock()
	meta, ok := c.tables[strings.ToLower(table)]
	if !ok {
		c.mu.RUnlock()
		return fmt.Errorf("mpp: table %s does not exist", table)
	}
	shards := c.shards
	c.mu.RUnlock()

	if meta.repl {
		for _, sh := range shards {
			tbl, _ := sh.DB.Table(table)
			if err := tbl.InsertBatch(rows); err != nil {
				return err
			}
		}
		return nil
	}
	buckets := make([][]types.Row, len(shards))
	for _, r := range rows {
		h := r[meta.distCol].Hash()
		buckets[h%uint64(len(shards))] = append(buckets[h%uint64(len(shards))], r)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i, sh := range shards {
		if len(buckets[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			tbl, ok := sh.DB.Table(table)
			if !ok {
				errs[i] = fmt.Errorf("mpp: shard %d missing table %s", sh.ID, table)
				return
			}
			errs[i] = tbl.InsertBatch(buckets[i])
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the cluster-wide live row count of a table (replicated
// tables count one copy).
func (c *Cluster) Rows(table string) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	meta, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("mpp: table %s does not exist", table)
	}
	if meta.repl {
		tbl, _ := c.shards[0].DB.Table(table)
		return tbl.Rows(), nil
	}
	total := 0
	for _, sh := range c.shards {
		tbl, _ := sh.DB.Table(table)
		total += tbl.Rows()
	}
	return total, nil
}
