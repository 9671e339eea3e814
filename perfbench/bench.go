package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dashdb/internal/core"
	"dashdb/internal/sql"
)

// config is one benchmark run's settings.
type config struct {
	workload string // point or analytic
	seed     int64
	seconds  int
	trace    bool
	scale    int    // transactions rows; 400K except in tests
	root     string // checkout root, for the source fingerprint
	spanDir  string // where a traced run writes its spans
}

// workloads are the two mixes a run can weight. Every run runs all three
// phases (analytic, point, failover), since each run reports every
// end-to-end metric; the workload picks which of the analytic and point
// phases gets the larger, primary size. Failover is a phase of both
// rather than a workload of its own: its size does not change between
// them, and a third workload would not fit the longer runs that steady
// the tails into the benchmark's time budget.
var workloads = []string{"point", "analytic"}

// Every phase runs one closed-loop client. Two point clients on a
// 2-vCPU host made each point latency depend on how the clients'
// statements happened to overlap, which host speed moved from run to
// run: over sets of five and ten runs insert_p50_ms spread up to 0.19.
// One client keeps the mix, with writes and reads interleaved on the
// same table; in a five-run check on the same host its point medians
// spread 0.02 to 0.06.

// rounds is how many fresh clusters an untraced run boots, loads and
// measures in turn. Each round runs a third of every phase, so each
// end-to-end metric samples the whole run rather than one stretch of
// it, and a burst of load from elsewhere on a shared host falls on
// every metric a little instead of on one metric entirely. setup_s is
// the median of the rounds' set-ups; a traced run boots and loads this
// many times too and measures on the last cluster.
const rounds = 3

// failoverInserts is the acknowledged INSERTs per failover cycle.
const failoverInserts = 20

// pointWarmOps is the unmeasured point statements run before each
// measured point phase.
const pointWarmOps = 40

// sizes is how much work each phase does in one round. Sizes are
// counts, not durations, so the same seed always runs the same
// statements. At --seconds 10 on a 2-vCPU host a run's three rounds
// measure about 33 seconds. Each phase starts right after a forced
// garbage collection.
type sizes struct {
	AnalyticPasses int `json:"analytic_passes"` // passes of the 30 queries, one join after each
	PointOps       int `json:"point_ops"`       // point statements
	FailCycles     int `json:"failover_cycles"`
}

// phaseSizes is the per-round work of an untraced run. The secondary
// phase is smaller than the primary one but still large enough to keep
// its tail metrics steady, since every run reports them.
func phaseSizes(seconds int, primary string) sizes {
	s := float64(seconds)
	sz := sizes{
		AnalyticPasses: max(1, int(math.Round(0.3*s))),
		PointOps:       max(40, 56*seconds),
		FailCycles:     max(2, int(math.Round(0.8*s))),
	}
	switch primary {
	case "analytic":
		sz.AnalyticPasses = max(1, int(math.Round(0.4*s)))
	case "point":
		sz.PointOps = max(40, 80*seconds)
	}
	return sz
}

// traceSizes is the work of each half of a traced run's phases: smaller
// than an untraced run's, since each phase runs twice and serially.
func traceSizes(seconds int) sizes {
	s := float64(seconds)
	return sizes{
		AnalyticPasses: max(3, int(math.Round(0.3*s))),
		PointOps:       max(160, 40*seconds),
		FailCycles:     max(4, int(math.Round(0.6*s))),
	}
}

// bench is the state of one run.
type bench struct {
	cfg     config
	data    *dataset
	queries []string // the 30 analytic queries
	oracle  oracle
	cl      *cluster
	tr      *tracer // nil unless --trace 1
	phase   int     // span ID of the running phase

	acked    atomic.Int64 // acknowledged single-row INSERTs since load
	nextID   int64        // next fresh txn_id
	salt     int64        // distinguishes the RNG streams of repeated phases
	passes   int          // analytic passes so far; picks the next join
	failNext int          // next node to kill, rotating A, B, C

	attempted atomic.Int64
	failed    atomic.Int64
	inexact   atomic.Int64 // answers equal to the oracle only within floatTolerance
	errMu     sync.Mutex
	errs      []string

	layers map[string]*layerStats // traced measurements per statement class
}

// layerStats accumulates the per-statement layer measurements of one
// statement class during traced phases.
type layerStats struct {
	parseUS, selfMS, shardMS, shards []float64
	d                                []delta
	// Scan counters summed over the class's statements.
	visited, skipped, scanned, returned int64
}

// fail records a failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// exec runs one statement through the coordinator. When traced it
// records the statement's span with its parse and shard-execution
// children, and the counter deltas around it, under class.
func (b *bench) exec(class, text string, traced bool) (*core.Result, time.Duration, error) {
	b.attempted.Add(1)
	if !traced {
		t0 := time.Now()
		res, err := b.cl.nc.Query(text)
		return res, time.Since(t0), err
	}
	p0 := time.Now()
	if _, err := sql.Parse(text, sql.DialectANSI); err != nil {
		return nil, 0, err
	}
	parse := time.Since(p0)
	before, err := snapshot(b.cl.fs)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := b.cl.nc.Query(text)
	end := time.Now()
	if err != nil {
		return nil, end.Sub(start), err
	}
	after, err := snapshot(b.cl.fs)
	if err != nil {
		return nil, 0, err
	}
	id := b.tr.add(b.phase, "stmt."+class, start, end)
	b.tr.add(id, "sql.parse", start, start.Add(parse))
	ls := b.layer(class)
	if st := res.Stats; st != nil {
		b.tr.add(id, "core.shard_exec", st.Start, st.Start.Add(st.Elapsed))
		ls.shardMS = append(ls.shardMS, ms(st.Elapsed))
		ls.shards = append(ls.shards, float64(st.Shards))
		for _, op := range st.Ops {
			if op.HasScan {
				ls.visited += op.StridesVisited
				ls.skipped += op.StridesSkipped
				ls.scanned += op.Rows
			}
		}
		ls.returned += int64(len(res.Rows))
	}
	ls.parseUS = append(ls.parseUS, float64(parse.Nanoseconds())/1e3)
	ls.selfMS = append(ls.selfMS, ms(b.tr.selfTime(id)))
	ls.d = append(ls.d, before.to(after))
	return res, end.Sub(start), nil
}

func (b *bench) layer(class string) *layerStats {
	ls, ok := b.layers[class]
	if !ok {
		ls = &layerStats{}
		b.layers[class] = ls
	}
	return ls
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- set-up --------------------------------------------------------------------

type setupTimes struct{ boot, load, total []float64 }

// boot boots a cluster and loads b.data into it, appending the boot,
// load and total times to st. Only boot and load are timed; generating
// the data and building the oracle are not part of setup_s.
func (b *bench) boot(st *setupTimes) (*cluster, error) {
	runtime.GC()
	t0 := time.Now()
	cl, err := bootCluster(clusterNodes, clusterShards)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := cl.load(b.data); err != nil {
		cl.close()
		return nil, err
	}
	t2 := time.Now()
	id := b.tr.add(0, "setup", t0, t2)
	b.tr.add(id, "setup.boot", t0, t1)
	b.tr.add(id, "setup.load", t1, t2)
	st.boot = append(st.boot, t1.Sub(t0).Seconds())
	st.load = append(st.load, t2.Sub(t1).Seconds())
	st.total = append(st.total, t2.Sub(t0).Seconds())
	return cl, nil
}

// use makes cl the measured cluster, which holds exactly the loaded
// rows.
func (b *bench) use(cl *cluster) {
	b.cl = cl
	b.acked.Store(0)
	b.nextID = int64(b.data.nTxns)
}

// warmUp runs one unmeasured, checked pass of the analytic queries,
// which fills the shard buffer pools.
func (b *bench) warmUp() {
	for _, q := range b.queries {
		b.checked("scatter", q, false)
	}
}

// warmPoint runs pointWarmOps unmeasured point statements. They change
// the data, so they run after the analytic phase.
func (b *bench) warmPoint() {
	b.point(&pointOut{}, pointWarmOps, false)
}

// --- analytic ------------------------------------------------------------------

type analyticOut struct {
	scatter, join, perOp []float64
	joinBy               map[string][]float64 // per join template
	inboxMax             int                  // inboxes left after inboxSettle
	inboxLate            int                  // joins whose inboxes outlived the reply
}

// analytic runs passes of the 30 analytic queries, each pass followed
// by one shuffle join in rotation, checking every answer against the
// oracle and every server's shuffle inboxes after every join.
func (b *bench) analytic(out *analyticOut, passes int, traced bool) {
	runtime.GC()
	if out.joinBy == nil {
		out.joinBy = make(map[string][]float64)
	}
	for i := 0; i < passes; i++ {
		for _, q := range b.queries {
			t0 := time.Now()
			d, ok := b.checked("scatter", q, traced)
			out.perOp = append(out.perOp, ms(time.Since(t0)))
			if ok {
				out.scatter = append(out.scatter, ms(d))
			}
		}
		jt := joinTemplates[b.passes%len(joinTemplates)]
		b.passes++
		t0 := time.Now()
		d, ok := b.checked(jt.name, jt.sql, traced)
		out.perOp = append(out.perOp, ms(time.Since(t0)))
		if ok {
			out.join = append(out.join, ms(d))
			out.joinBy[jt.name] = append(out.joinBy[jt.name], ms(d))
		}
		inbox, settled := b.inboxesAfterJoin()
		out.inboxMax = max(out.inboxMax, inbox)
		if !settled {
			out.inboxLate++
		}
		if inbox != 0 {
			b.fail("%s: %d shuffle inboxes left after the join", jt.name, inbox)
		}
	}
}

// inboxSettle bounds how long inboxes may outlive a join's reply.
const inboxSettle = time.Second

// inboxesAfterJoin returns the shuffle inboxes left on the servers once
// the join has finished everywhere. A join fragment drops its
// partition's inboxes in a deferred call that runs after its reply is
// written, so right after the coordinator returns they can still be
// there for a moment; settled reports whether they were already gone.
// Inboxes still present after inboxSettle are a leak.
func (b *bench) inboxesAfterJoin() (left int, settled bool) {
	count := func() int {
		n := 0
		for _, srv := range b.cl.alive() {
			n += srv.Router().InboxCount()
		}
		return n
	}
	settled = true
	for deadline := time.Now().Add(inboxSettle); ; {
		if left = count(); left == 0 || time.Now().After(deadline) {
			return left, settled
		}
		settled = false
		time.Sleep(time.Millisecond)
	}
}

// checked runs an analytic statement and compares it with the oracle.
func (b *bench) checked(class, text string, traced bool) (time.Duration, bool) {
	res, d, err := b.exec(class, text, traced)
	if err != nil {
		b.fail("%s: %v", text, err)
		return 0, false
	}
	v, why := compareRows(res.Rows, b.oracle[text], strings.Contains(text, "ORDER BY"))
	switch v {
	case wrong:
		b.fail("%s: %s", text, why)
		return 0, false
	case inexact:
		b.inexact.Add(1)
	}
	return d, true
}

// --- point ---------------------------------------------------------------------

type pointOut struct {
	sel, ins, upd, perOp []float64
	ops                  int     // statements run
	seconds              float64 // wall time they took
}

// opsPerSec is the point statements per second.
func (o *pointOut) opsPerSec() float64 { return float64(o.ops) / o.seconds }

// Statement kinds of the point mix.
const (
	opSelect = iota
	opInsert
	opUpdate
)

// pointStmt is one statement of the point mix; key is the txn_id a
// SELECT reads or an UPDATE changes.
type pointStmt struct {
	op   int
	key  int
	text string
}

// pointDeck makes n statements (n a multiple of 4) from rng: exactly
// 50% SELECT, 25% INSERT of a fresh txn_id from firstID up, and 25%
// UPDATE, shuffled, with SELECT and UPDATE keys uniform over the loaded
// ids. The shares are exact, not drawn per statement, because every
// UPDATE makes later statements dearer; a drawn mix moved update_p50_ms
// and failover_ms with the seed's UPDATE count.
func (b *bench) pointDeck(rng *rand.Rand, n int, firstID int64) []pointStmt {
	ops := make([]int, n)
	for i := range ops {
		switch {
		case i < n/2:
			ops[i] = opSelect
		case i < n*3/4:
			ops[i] = opInsert
		default:
			ops[i] = opUpdate
		}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	deck := make([]pointStmt, n)
	for i, op := range ops {
		st := pointStmt{op: op, key: rng.Intn(b.data.nTxns)}
		switch op {
		case opSelect:
			st.text = fmt.Sprintf("SELECT txn_id, amount, status FROM transactions WHERE txn_id = %d", st.key)
		case opInsert:
			st.text = fmt.Sprintf("INSERT INTO transactions VALUES (%d, %d, DATE '2016-12-30', %d.%02d, 'BUY', 'PENDING')",
				firstID, rng.Intn(b.data.nAccounts), rng.Intn(1000), rng.Intn(100))
			firstID++
		case opUpdate:
			st.text = fmt.Sprintf("UPDATE transactions SET status = 'SETTLED' WHERE txn_id = %d", st.key)
		}
		deck[i] = st
	}
	return deck
}

// point runs ops statements of the DML-heavy mix (rounded up to a
// multiple of 4) from one closed-loop client: 50% SELECT by txn_id, 25%
// single-row INSERT of a fresh txn_id, 25% UPDATE by txn_id, in the
// order of a deck the seed shuffles, so the same seed always runs the
// same statements.
func (b *bench) point(out *pointOut, ops int, traced bool) {
	runtime.GC()
	b.salt++
	n := 4 * ((ops + 3) / 4)
	deck := b.pointDeck(newRNG(b.cfg.seed, b.salt), n, b.nextID)
	b.nextID += int64(n / 4)
	t0 := time.Now()
	for _, st := range deck {
		s0 := time.Now()
		switch st.op {
		case opSelect:
			if d, ok := b.pointSelect(st.key, st.text, traced); ok {
				out.sel = append(out.sel, ms(d))
			}
		case opInsert:
			if d, ok := b.dml("insert", st.text, traced); ok {
				b.acked.Add(1)
				out.ins = append(out.ins, ms(d))
			}
		case opUpdate:
			if d, ok := b.dml("update", st.text, traced); ok {
				out.upd = append(out.upd, ms(d))
			}
		}
		out.perOp = append(out.perOp, ms(time.Since(s0)))
	}
	out.ops += n
	out.seconds += time.Since(t0).Seconds()
}

// pointSelect reads one loaded row by its distribution key and checks
// that exactly that row comes back with its loaded amount and either
// its loaded status or the one the UPDATEs set. The amount is held to
// the oracle's float tolerance: columnar storage does not return every
// float bit for bit (28535.000000000004 reads back as 28535), and such
// answers are counted as inexact.
func (b *bench) pointSelect(k int, text string, traced bool) (time.Duration, bool) {
	res, d, err := b.exec("point_select", text, traced)
	if err != nil {
		b.fail("%s: %v", text, err)
		return 0, false
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 3 {
		b.fail("%s: %d rows, want 1", text, len(res.Rows))
		return 0, false
	}
	r := res.Rows[0]
	status := r[2].String()
	amount := cellVerdict(r[1], b.data.amount[k])
	if r[0].Int() != int64(k) || amount == wrong || (status != b.data.status[k] && status != "SETTLED") {
		b.fail("%s: got %v", text, r)
		return 0, false
	}
	if amount == inexact {
		b.inexact.Add(1)
	}
	return d, true
}

// dml runs an INSERT or UPDATE that must affect exactly one row.
func (b *bench) dml(class, text string, traced bool) (time.Duration, bool) {
	res, d, err := b.exec(class, text, traced)
	if err != nil {
		b.fail("%s: %v", text, err)
		return 0, false
	}
	if res.RowsAffected != 1 {
		b.fail("%s: %d rows affected, want 1", text, res.RowsAffected)
		return 0, false
	}
	return d, true
}

// --- failover ------------------------------------------------------------------

type failoverOut struct {
	fail, rejoin, perOp []float64
	failNode, addNode   []float64
	failD, rejoinD      []delta
}

// failover runs kill/rejoin cycles: acknowledged INSERTs, then one
// server is closed (rotating A, B, C) and the next COUNT(*) must
// succeed on the survivors with no acknowledged row lost; then a fresh
// server starts under the dead node's name, joins through AddNode, and
// the next COUNT(*) must again see every row. Traced cycles call
// FailNode directly instead of leaving detection to the failed
// statement, so the re-shard and the statement are timed apart.
func (b *bench) failover(out *failoverOut, cycles int, traced bool) {
	runtime.GC()
	for c := 0; c < cycles; c++ {
		c0 := time.Now()
		for i := 0; i < failoverInserts; i++ {
			text := fmt.Sprintf("INSERT INTO transactions VALUES (%d, %d, DATE '2016-12-30', 1.25, 'SELL', 'PENDING')",
				b.nextID, b.nextID%int64(b.data.nAccounts))
			b.nextID++
			if _, ok := b.dml("failover_insert", text, false); ok {
				b.acked.Add(1)
			}
		}
		victim := b.cl.names[b.failNext%len(b.cl.names)]
		b.failNext++
		b.cl.servers[victim].Close()

		before := b.maybeSnapshot(traced)
		k0 := time.Now()
		if traced {
			err := b.cl.nc.FailNode(victim)
			b.tr.add(b.phase, "mpp.failnode", k0, time.Now())
			out.failNode = append(out.failNode, ms(time.Since(k0)))
			if err != nil {
				b.fail("FailNode %s: %v", victim, err)
			}
		}
		if b.countUntilOK("after killing "+victim, k0) {
			out.fail = append(out.fail, ms(time.Since(k0)))
		}
		out.failD = append(out.failD, before.to(b.maybeSnapshot(traced)))

		srv, err := b.cl.startServer(victim)
		if err != nil {
			b.fail("restart %s: %v", victim, err)
			return
		}
		before = b.maybeSnapshot(traced)
		r0 := time.Now()
		err = b.cl.nc.AddNode(netNode(victim, srv))
		if traced {
			b.tr.add(b.phase, "mpp.addnode", r0, time.Now())
			out.addNode = append(out.addNode, ms(time.Since(r0)))
		}
		b.attempted.Add(1)
		if err != nil {
			b.fail("AddNode %s: %v", victim, err)
		}
		if b.countUntilOK("after rejoining "+victim, r0) {
			out.rejoin = append(out.rejoin, ms(time.Since(r0)))
		}
		out.rejoinD = append(out.rejoinD, before.to(b.maybeSnapshot(traced)))
		out.perOp = append(out.perOp, ms(time.Since(c0)))
	}
}

// maybeSnapshot reads the counters in traced cycles; a failed read
// fails the run.
func (b *bench) maybeSnapshot(traced bool) counters {
	if !traced {
		return counters{}
	}
	c, err := snapshot(b.cl.fs)
	if err != nil {
		b.fail("counters: %v", err)
	}
	return c
}

// countUntilOK retries SELECT COUNT(*) until it succeeds (each failure
// is a failed operation) and checks it against the rows loaded plus
// every acknowledged INSERT.
func (b *bench) countUntilOK(what string, since time.Time) bool {
	for {
		s0 := time.Now()
		res, _, err := b.exec("count", countSQL, false)
		if err == nil {
			want := int64(b.data.nTxns) + b.acked.Load()
			got := int64(-1)
			if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
				got = res.Rows[0][0].Int()
			}
			b.tr.add(b.phase, "stmt.count", s0, time.Now())
			if got != want {
				b.fail("COUNT(*) %s: %d, want %d", what, got, want)
				return false
			}
			return true
		}
		b.fail("COUNT(*) %s: %v", what, err)
		if time.Since(since) > 20*time.Second {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
