package mpp

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dashdb/internal/clusterfs"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// NetCluster is the multi-process MPP coordinator: the same
// scatter/partial-aggregate model as the in-process Cluster, but the
// shards live behind shardrpc servers — separate OS processes sharing
// one clustered filesystem, exactly the paper's §II.E deployment. On
// top of the scatter fast path it runs distributed equi-joins through
// the partitioned-hash shuffle exchange, and it owns the HA story:
// when a node dies, survivors adopt its shards (from clusterfs-persisted
// state) with per-shard memory and parallelism scaled down, and the
// in-flight statement is retried against the new membership (Figure 9).

// NetNode describes one shard-server process: its node name, listen
// address and hardware. StartServers fills in Addr for in-process
// servers.
type NetNode struct {
	Name     string
	Addr     string
	Cores    int
	MemBytes int64
}

type netNode struct {
	spec  NetNode
	alive bool
}

// Per-shard memory shares: of a shard's RAM slice, the fractions that
// go to the buffer pool, the sort heap and the hash heap. deploy's
// AutoConfigure applies the same fractions to a whole host.
const (
	BufferPoolShare = 0.40
	SortHeapShare   = 0.15
	HashHeapShare   = 0.15
)

// NetCluster coordinates shard servers over the wire.
type NetCluster struct {
	mu      sync.RWMutex
	fs      *clusterfs.FS
	pool    *shardrpc.Pool
	nodes   []*netNode
	nShards int
	assign  []int // shard -> node index, -1 = unassigned
	tables  map[string]*tableMeta
	nextID  uint32
	reg     *telemetry.Registry
	stats   NetStats
	qid     atomic.Uint64 // randomly seeded; see NewNetCluster
}

// mintID mints a cluster-unique 64-bit ID (shuffle query IDs, DML
// idempotency tokens) off the randomly seeded counter.
func (c *NetCluster) mintID() uint64 { return c.qid.Add(1) }

// NetStats counts coordinator path selections.
type NetStats struct {
	FastPathQueries   uint64
	ShuffleJoins      uint64
	GatherPathQueries uint64
	Failovers         uint64
	Reshards          uint64
}

// NewNetCluster connects to running shard servers and bootstraps
// nShards shards across them. The servers must share fs (the same
// in-memory instance in-process, or the same OpenDir directory across
// processes).
func NewNetCluster(nodes []NetNode, nShards int, fs *clusterfs.FS) (*NetCluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mpp: net cluster needs nodes")
	}
	if nShards < len(nodes) {
		nShards = len(nodes)
	}
	c := &NetCluster{
		fs:      fs,
		pool:    shardrpc.NewPool("coordinator"),
		nShards: nShards,
		assign:  make([]int, nShards),
		tables:  make(map[string]*tableMeta),
		nextID:  1,
		reg:     telemetry.NewRegistry(telemetry.DefaultHistorySize),
	}
	// Seed the ID counter with 64 random bits. The IDs key shuffle
	// inboxes and the DML applied log on shard servers that outlive this
	// process and may serve several coordinators at once, so a counter
	// from zero would collide across coordinator processes and restarts,
	// mixing one query's shuffle batches into another's join input.
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		c.qid.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	for _, n := range nodes {
		c.nodes = append(c.nodes, &netNode{spec: n, alive: true})
	}
	for i := range c.assign {
		c.assign[i] = -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebalanceLocked()
	if err := c.pushAssignmentsLocked("bootstrap", nil); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenNetCluster bootstraps a coordinator over an existing clustered
// filesystem: the manifest fixes shard count and tables, and the node
// topology is free. This is §II.E's portability story ("by copying/moving
// the clustered file system ... deploy ... against an entirely new set
// of hardware with a different physical cluster topology"): the
// manifest is rewritten on every DDL and shard servers persist every
// acknowledged statement, so any copy of the filesystem is complete.
func OpenNetCluster(nodes []NetNode, fs *clusterfs.FS) (*NetCluster, error) {
	m, err := readManifest(fs)
	if err != nil {
		return nil, err
	}
	c, err := NewNetCluster(nodes, m.NShards, fs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mt := range m.Tables {
		distCol := 0
		if mt.DistributeBy != "" {
			if i := mt.Schema.ColumnIndex(mt.DistributeBy); i >= 0 {
				distCol = i
			}
		}
		c.tables[strings.ToLower(mt.Name)] = &tableMeta{schema: mt.Schema, distCol: distCol, repl: mt.Replicated, id: mt.ID}
		if mt.ID >= c.nextID {
			c.nextID = mt.ID + 1
		}
	}
	return c, c.pushAssignmentsLocked("restore", nil)
}

// Close shuts the coordinator's connection pool (servers keep running).
func (c *NetCluster) Close() { c.pool.Close() }

// Stats returns path-selection counters.
func (c *NetCluster) Stats() NetStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// Registry exposes the cluster-level query history (MON_* views over
// merged shard records).
func (c *NetCluster) Registry() *telemetry.Registry { return c.reg }

// NShards returns the shard count (fixed for the cluster's life).
func (c *NetCluster) NShards() int { return c.nShards }

// Nodes returns the specs of the currently alive nodes.
func (c *NetCluster) Nodes() []NetNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []NetNode
	for _, n := range c.nodes {
		if n.alive {
			out = append(out, n.spec)
		}
	}
	return out
}

// Assignment renders the current shard placement, e.g. "A:2 B:2".
func (c *NetCluster) Assignment() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	counts := make([]int, len(c.nodes))
	for _, ni := range c.assign {
		if ni >= 0 {
			counts[ni]++
		}
	}
	var parts []string
	for i, n := range c.nodes {
		if n.alive {
			parts = append(parts, fmt.Sprintf("%s:%d", n.spec.Name, counts[i]))
		}
	}
	return strings.Join(parts, " ")
}

// ShardAssigns returns every shard's resource grant (for monitoring and
// the Figure 9 experiment: heaps shrink when survivors host more
// shards).
func (c *NetCluster) ShardAssigns() []shardrpc.ShardAssign {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]shardrpc.ShardAssign, 0, c.nShards)
	for s := 0; s < c.nShards; s++ {
		out = append(out, c.shardAssignLocked(s))
	}
	return out
}

// --- placement ---------------------------------------------------------------

// aliveLocked returns indices of alive nodes, in node order.
func (c *NetCluster) aliveLocked() []int {
	var out []int
	for i, n := range c.nodes {
		if n.alive {
			out = append(out, i)
		}
	}
	return out
}

// rebalanceLocked re-associates shards with minimal movement: shards
// with a dead (or removed) owner enter the pool; alive nodes above
// their quota give up their highest-numbered shards; pool shards go to
// nodes below quota. Deterministic given the same membership history.
func (c *NetCluster) rebalanceLocked() {
	alive := c.aliveLocked()
	if len(alive) == 0 {
		return
	}
	quota := make(map[int]int, len(alive))
	base, rem := c.nShards/len(alive), c.nShards%len(alive)
	for i, ni := range alive {
		quota[ni] = base
		if i < rem {
			quota[ni]++
		}
	}
	owned := make(map[int][]int) // node -> shards, ascending
	var pool []int
	for s := 0; s < c.nShards; s++ {
		ni := c.assign[s]
		if ni < 0 || !c.nodes[ni].alive {
			pool = append(pool, s)
			continue
		}
		owned[ni] = append(owned[ni], s)
	}
	for _, ni := range alive {
		for len(owned[ni]) > quota[ni] {
			last := owned[ni][len(owned[ni])-1]
			owned[ni] = owned[ni][:len(owned[ni])-1]
			pool = append(pool, last)
		}
	}
	sort.Ints(pool)
	for _, s := range pool {
		best, bestN := -1, 0
		for _, ni := range alive {
			if len(owned[ni]) < quota[ni] && (best < 0 || len(owned[ni]) < bestN) {
				best, bestN = ni, len(owned[ni])
			}
		}
		if best < 0 {
			best = alive[0]
		}
		owned[best] = append(owned[best], s)
		c.assign[s] = best
	}
	for ni, shards := range owned {
		for _, s := range shards {
			c.assign[s] = ni
		}
	}
}

// shardAssignLocked computes one shard's resource grant from its node's
// hardware divided by how many shards the node currently hosts — the
// mechanism that makes failover shrink per-shard heaps and DOP.
func (c *NetCluster) shardAssignLocked(shard int) shardrpc.ShardAssign {
	ni := c.assign[shard]
	if ni < 0 {
		return shardrpc.ShardAssign{ID: shard}
	}
	n := c.nodes[ni].spec
	count := 0
	for _, a := range c.assign {
		if a == ni {
			count++
		}
	}
	if count == 0 {
		count = 1
	}
	slice := n.MemBytes / int64(count)
	par := n.Cores / count
	if par < 1 {
		par = 1
	}
	return shardrpc.ShardAssign{
		ID:          shard,
		MemBytes:    int64(float64(slice) * BufferPoolShare),
		SortHeap:    int64(float64(slice) * SortHeapShare),
		HashHeap:    int64(float64(slice) * HashHeapShare),
		Parallelism: par,
	}
}

// tableSpecsLocked describes every table in storage-id (creation)
// order: the one form the coordinator ships to adopting servers, writes
// into the manifest and hands to callers of Tables.
func (c *NetCluster) tableSpecsLocked() []shardrpc.TableSpec {
	var out []shardrpc.TableSpec
	for name, meta := range c.tables {
		spec := shardrpc.TableSpec{Name: name, ID: meta.id, Schema: meta.schema, Replicated: meta.repl}
		if meta.distCol >= 0 && meta.distCol < len(meta.schema) {
			spec.DistributeBy = meta.schema[meta.distCol].Name
		}
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pushAssignmentsLocked sends every alive node its full shard list with
// freshly computed budgets; released lists shards to drop per node
// (elastic moves). Adopt is idempotent, so re-sending the whole
// assignment is the simplest level-triggered protocol.
func (c *NetCluster) pushAssignmentsLocked(reason string, released map[int][]int) error {
	tables := c.tableSpecsLocked()
	perNode := make(map[int][]shardrpc.ShardAssign)
	for s := 0; s < c.nShards; s++ {
		ni := c.assign[s]
		if ni >= 0 && c.nodes[ni].alive {
			perNode[ni] = append(perNode[ni], c.shardAssignLocked(s))
		}
	}
	for ni, shards := range released {
		if !c.nodes[ni].alive {
			continue
		}
		if err := c.pool.Release(c.nodes[ni].spec.Addr, shards); err != nil {
			return fmt.Errorf("mpp: release on %s: %w", c.nodes[ni].spec.Name, err)
		}
	}
	for ni, assigns := range perNode {
		err := c.pool.Adopt(c.nodes[ni].spec.Addr, shardrpc.AdoptReq{Shards: assigns, Tables: tables, Reason: reason})
		if err != nil {
			return fmt.Errorf("mpp: adopt on %s: %w", c.nodes[ni].spec.Name, err)
		}
	}
	return nil
}

// addrOfLocked returns the owning server address for a shard.
func (c *NetCluster) addrOfLocked(shard int) (string, error) {
	ni := c.assign[shard]
	if ni < 0 || !c.nodes[ni].alive {
		return "", fmt.Errorf("mpp: shard %d has no alive owner", shard)
	}
	return c.nodes[ni].spec.Addr, nil
}

// shardAddrs snapshots shard -> server address.
func (c *NetCluster) shardAddrs() ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, c.nShards)
	for s := 0; s < c.nShards; s++ {
		addr, err := c.addrOfLocked(s)
		if err != nil {
			return nil, err
		}
		out[s] = addr
	}
	return out, nil
}

// --- HA and elasticity -------------------------------------------------------

// ErrNoAliveNode reports that FailNode or RemoveNode named a node the
// coordinator does not count as alive — unknown, removed, or already
// failed over (possibly by a statement that found it dead).
var ErrNoAliveNode = errors.New("mpp: no alive node")

// FailNode marks a node dead and re-associates its shards across the
// survivors, which adopt them from clusterfs-persisted state with
// reduced per-shard budgets. The node's server process need not be
// reachable (that is the point).
func (c *NetCluster) FailNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	victim := -1
	for i, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, name) && n.alive {
			victim = i
		}
	}
	if victim < 0 {
		return fmt.Errorf("%w %s", ErrNoAliveNode, name)
	}
	if len(c.aliveLocked()) == 1 {
		return fmt.Errorf("mpp: failing %s leaves no alive nodes", name)
	}
	c.nodes[victim].alive = false
	c.stats.Failovers++
	c.rebalanceLocked()
	return c.pushAssignmentsLocked("failover", nil)
}

// AddNode grows the cluster: the new server adopts a proportional share
// of existing shards (their file-sets are already on the clustered
// filesystem), and every node's per-shard budgets grow accordingly.
func (c *NetCluster) AddNode(spec NetNode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rejoin *netNode // a dead entry under the same name
	for _, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, spec.Name) {
			if n.alive {
				return fmt.Errorf("mpp: node %s already present", spec.Name)
			}
			rejoin = n
		}
	}
	if _, err := c.pool.Ping(spec.Addr); err != nil {
		return fmt.Errorf("mpp: new node %s unreachable: %w", spec.Name, err)
	}
	if rejoin != nil {
		// A repaired node rejoins in its old slot, so fail/rejoin cycles
		// do not grow the node list. Dead nodes own no shards.
		rejoin.spec, rejoin.alive = spec, true
	} else {
		c.nodes = append(c.nodes, &netNode{spec: spec, alive: true})
	}
	c.stats.Reshards++
	prev := append([]int(nil), c.assign...)
	c.rebalanceLocked()
	released := c.movedShardsLocked(prev)
	return c.pushAssignmentsLocked("grow", released)
}

// RemoveNode shrinks the cluster gracefully: the node's shards are
// released (persisting their state) and re-adopted by the remaining
// nodes.
func (c *NetCluster) RemoveNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := -1
	for i, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, name) && n.alive {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w %s", ErrNoAliveNode, name)
	}
	if len(c.aliveLocked()) == 1 {
		return fmt.Errorf("mpp: cannot remove the last node")
	}
	var owned []int
	for s, ni := range c.assign {
		if ni == idx {
			owned = append(owned, s)
		}
	}
	// Release first so the open strides are persisted before adoption.
	if err := c.pool.Release(c.nodes[idx].spec.Addr, owned); err != nil {
		return fmt.Errorf("mpp: release on %s: %w", name, err)
	}
	c.nodes[idx].alive = false
	c.stats.Reshards++
	c.rebalanceLocked()
	return c.pushAssignmentsLocked("shrink", nil)
}

// movedShardsLocked diffs a previous assignment against the current
// one, returning oldNode -> shards that left it (for Release).
func (c *NetCluster) movedShardsLocked(prev []int) map[int][]int {
	released := make(map[int][]int)
	for s, old := range prev {
		if old >= 0 && old != c.assign[s] && c.nodes[old].alive {
			released[old] = append(released[old], s)
		}
	}
	return released
}

// handleNodeDeath converts a transport-level failure against a server
// address into a failover: mark that node dead, re-shard, and let the
// caller retry. Identified by the dialed address — not by current shard
// ownership, which a concurrent failover may already have changed.
// Returns false when the error is not transport-shaped or no node
// matches the address.
func (c *NetCluster) handleNodeDeath(addr string, err error) bool {
	if !shardrpc.IsTransient(err) {
		return false
	}
	c.mu.RLock()
	name, alive := "", false
	for _, n := range c.nodes {
		if n.spec.Addr == addr {
			name, alive = n.spec.Name, n.alive
		}
	}
	c.mu.RUnlock()
	if name == "" {
		return false
	}
	if !alive {
		return true // someone else already failed it; just retry
	}
	return c.FailNode(name) == nil
}

// --- DDL and DML -------------------------------------------------------------

// CreateTable registers a distributed table and creates its shard-local
// slices on every server.
func (c *NetCluster) CreateTable(name string, schema types.Schema, opts TableOptions) error {
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
	c.tables[key] = &tableMeta{schema: schema, distCol: distCol, repl: opts.Replicated, id: c.nextID}
	c.nextID++
	if err := c.writeManifestLocked(); err != nil {
		return err
	}
	return c.pushAssignmentsLocked("ddl", nil)
}

// DropTable removes a table cluster-wide.
func (c *NetCluster) DropTable(name string) error {
	c.mu.Lock()
	key := strings.ToLower(name)
	meta, ok := c.tables[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("mpp: table %s does not exist", name)
	}
	delete(c.tables, key)
	if err := c.writeManifestLocked(); err != nil {
		c.tables[key] = meta
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	st := &sql.DropStmt{Kind: "TABLE", Name: name}
	_, err := c.netBroadcast(st, sql.DialectANSI)
	return err
}

func (c *NetCluster) writeManifestLocked() error {
	return writeManifest(c.fs, manifest{NShards: c.nShards, Tables: c.tableSpecsLocked()})
}

// Insert routes rows to shards by distribution-key hash; replicated
// tables receive every row on every shard. A node death mid-insert
// triggers failover and a retry that re-sends ONLY the buckets whose
// shard failed — shards that acknowledged the first attempt have their
// rows durably applied and must not see them again. For the failed
// shard itself, the per-statement token lets its adopter (which may
// have recovered state the dead node persisted just before losing the
// reply) acknowledge the resend without duplicating the bucket.
func (c *NetCluster) Insert(table string, rows []types.Row) error {
	c.mu.RLock()
	meta, ok := c.tables[strings.ToLower(table)]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("mpp: table %s does not exist", table)
	}
	buckets := make([][]types.Row, c.nShards)
	if meta.repl {
		for i := range buckets {
			buckets[i] = rows
		}
	} else {
		for _, r := range rows {
			h := r[meta.distCol].Hash()
			buckets[h%uint64(c.nShards)] = append(buckets[h%uint64(c.nShards)], r)
		}
	}
	token := c.mintID()
	var pending []int
	for s := range buckets {
		if len(buckets[s]) > 0 {
			pending = append(pending, s)
		}
	}
	for attempt := 0; len(pending) > 0; attempt++ {
		addrs, err := c.shardAddrs()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, len(pending))
		for i, s := range pending {
			wg.Add(1)
			go func(i, s int) {
				defer wg.Done()
				errs[i] = c.pool.Insert(addrs[s], s, table, token, buckets[s])
			}(i, s)
		}
		wg.Wait()
		var retry []int
		for i, s := range pending {
			switch {
			case errs[i] == nil:
			case attempt == 0 && c.handleNodeDeath(addrs[s], errs[i]):
				retry = append(retry, s)
			default:
				return errs[i]
			}
		}
		pending = retry
	}
	return nil
}

// Rows returns a table's cluster-wide live row count.
func (c *NetCluster) Rows(table string) (int, error) {
	c.mu.RLock()
	meta, ok := c.tables[strings.ToLower(table)]
	c.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("mpp: table %s does not exist", table)
	}
	addrs, err := c.shardAddrs()
	if err != nil {
		return 0, err
	}
	if meta.repl {
		n, err := c.pool.RowCount(addrs[0], 0, table)
		return int(n), err
	}
	total := 0
	for s := 0; s < c.nShards; s++ {
		n, err := c.pool.RowCount(addrs[s], s, table)
		if err != nil {
			return 0, err
		}
		total += int(n)
	}
	return total, nil
}

// Tables lists the cluster's tables in creation order (introspection and
// hybrid synchronization).
func (c *NetCluster) Tables() []shardrpc.TableSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tableSpecsLocked()
}

// TableRows gathers every live row of a table to the caller through the
// gather scan (hybrid sync and diagnostics; replicated tables return one
// copy).
func (c *NetCluster) TableRows(name string) ([]types.Row, error) {
	c.mu.RLock()
	meta, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mpp: table %s does not exist", name)
	}
	return (&netGatherSource{c: c, table: name, meta: meta}).ScanAll()
}

// --- manifest ----------------------------------------------------------------

// manifestPath is the manifest's location on the clustered filesystem.
const manifestPath = "cluster/manifest"

// manifest is the cluster's persisted shape. Gob matches struct fields
// by name, so manifests written with an earlier per-table struct of the
// same field names still decode.
type manifest struct {
	NShards int
	Tables  []shardrpc.TableSpec
}

// writeManifest gob-encodes the cluster manifest onto the clustered
// filesystem.
func writeManifest(fs *clusterfs.FS, m manifest) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return err
	}
	return fs.WriteFile(manifestPath, buf.Bytes())
}

// readManifest loads the persisted cluster manifest.
func readManifest(fs *clusterfs.FS) (manifest, error) {
	var m manifest
	data, err := fs.ReadFile(manifestPath)
	if err != nil {
		return m, fmt.Errorf("mpp: read manifest: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return m, fmt.Errorf("mpp: manifest: %w", err)
	}
	return m, nil
}
