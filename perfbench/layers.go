package main

import (
	"fmt"
	"time"

	"dashdb/internal/shardrpc"
)

// traceBlock is the point statements per untraced or traced block.
const traceBlock = 40

// Statement classes of the traced run. The select classes return a
// merged shard record (Result.Stats); DML returns none.
var (
	stmtClasses   = []string{"point_select", "insert", "update", "scatter", "join_a", "join_b", "join_c"}
	selectClasses = map[string]bool{"point_select": true, "scatter": true, "join_a": true, "join_b": true, "join_c": true}
	joinClasses   = map[string]bool{"join_a": true, "join_b": true, "join_c": true}
)

// traced runs every phase's statements one at a time, half of them
// untraced and half with spans and counter snapshots around each
// statement. It reports the per-layer metrics and the tracing overhead
// of the run's workload (traced over untraced median time per
// operation).
func (b *bench) traced(rep *report, prep map[string]float64) error {
	sz := traceSizes(b.cfg.seconds)
	t0 := time.Now()
	var st setupTimes
	for i := 0; i < rounds; i++ {
		cl, err := b.boot(&st)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if i < rounds-1 {
			cl.close()
			continue
		}
		b.use(cl)
		defer cl.close()
	}
	prep["setup_all"] = time.Since(t0).Seconds()
	loadW := b.cl.fs.Stats()
	rep.Detail["dataset"] = b.datasetDetail()
	b.data.compact()
	t0 = time.Now()
	b.warmUp()
	prep["warmup"] = time.Since(t0).Seconds()
	pingUS, err := b.ping()
	if err != nil {
		return err
	}

	// Untraced and traced work alternate pass by pass, block by block and
	// cycle by cycle, so that drift over the run falls on both sides of
	// trace.overhead alike.
	var anU, anT analyticOut
	ns0, fs0 := b.cl.nc.Stats(), b.cl.fs.Stats()
	end := b.openPhase("phase.analytic")
	for i := 0; i < sz.AnalyticPasses; i++ {
		b.analytic(&anU, 1, false)
		b.analytic(&anT, 1, true)
	}
	end()
	ns1, fs1 := b.cl.nc.Stats(), b.cl.fs.Stats()

	var ptU, ptT pointOut
	b.warmPoint()
	end = b.openPhase("phase.point")
	for i := 0; i < sz.PointOps/traceBlock; i++ {
		b.point(&ptU, traceBlock, false)
		b.point(&ptT, traceBlock, true)
	}
	end()
	saveMS, err := b.saveMeta()
	if err != nil {
		return err
	}

	var foU, foT failoverOut
	end = b.openPhase("phase.failover")
	for i := 0; i < sz.FailCycles; i++ {
		b.failover(&foU, 1, false)
		b.failover(&foT, 1, true)
	}
	end()

	untraced := map[string][]float64{"point_select": ptU.sel, "insert": ptU.ins, "update": ptU.upd, "scatter": anU.scatter}
	for name, xs := range anU.joinBy {
		untraced[name] = xs
	}
	for _, c := range stmtClasses {
		b.classMetrics(rep, c, untraced[c])
	}
	for _, c := range []string{"point_select", "scatter"} {
		ls := b.layer(c)
		rep.put("columnar.stride_skip_ratio."+c, "ratio", float64(ls.skipped)/float64(ls.visited+ls.skipped))
		rep.put("exec.rows_scanned_per_row_returned."+c, "ratio", float64(ls.scanned)/float64(ls.returned))
	}
	selects := float64(ns1.FastPathQueries + ns1.ShuffleJoins + ns1.GatherPathQueries -
		ns0.FastPathQueries - ns0.ShuffleJoins - ns0.GatherPathQueries)
	rep.put("mpp.gather_share", "ratio", float64(ns1.GatherPathQueries-ns0.GatherPathQueries)/selects)
	rep.put("shardrpc.ping_us", "us", pingUS)
	rep.put("shardrpc.inbox_count", "count", float64(anT.inboxMax))
	rep.put("columnar.savemeta_ms", "ms", saveMS)
	rep.put("clusterfs.bytes_written.analytic", "bytes", float64(fs1.BytesWritten-fs0.BytesWritten))
	for _, ev := range []struct {
		name string
		d    []delta
	}{{"failover", foT.failD}, {"rejoin", foT.rejoinD}} {
		rep.put("clusterfs.bytes_written."+ev.name, "bytes", median(pick(ev.d, func(d delta) float64 { return d.fsBytesW })))
		rep.put("clusterfs.writes."+ev.name, "count", median(pick(ev.d, func(d delta) float64 { return d.fsWrites })))
		rep.put("clusterfs.bytes_read."+ev.name, "bytes", median(pick(ev.d, func(d delta) float64 { return d.fsRead })))
	}
	rows := float64(b.data.rows())
	rep.put("clusterfs.bytes_written.load_row", "bytes", float64(loadW.BytesWritten)/rows)
	rep.put("clusterfs.writes.load_row", "count", float64(loadW.Writes)/rows)
	rep.put("mpp.failnode_ms", "ms", median(foT.failNode))
	rep.put("mpp.addnode_ms", "ms", median(foT.addNode))
	rep.put("setup.boot_s", "s", median(st.boot))
	rep.put("setup.load_s", "s", median(st.load))

	perOp := map[string][2][]float64{
		"analytic": {anU.perOp, anT.perOp},
		"point":    {ptU.perOp, ptT.perOp},
	}[b.cfg.workload]
	rep.put("trace.overhead", "ratio", median(perOp[1])/median(perOp[0]))

	rep.Detail["sizes"] = sz
	rep.Detail["failover_drift"] = drift([][]float64{foT.fail}, [][]float64{foT.rejoin})
	rep.Detail["shuffle_inboxes"] = inboxDetail(anT)
	return nil
}

// classMetrics reports one statement class's layer medians. Self time
// is the statement span minus its parse and shard-execution children;
// the unaccounted remainder is the class's untraced median minus the
// traced medians of parse, coordinator self time and shard execution.
func (b *bench) classMetrics(rep *report, c string, untraced []float64) {
	ls := b.layer(c)
	d := func(f func(delta) float64) []float64 { return pick(ls.d, f) }
	parse, self := median(ls.parseUS), median(ls.selfMS)
	rep.put("sql.parse_us."+c, "us", parse)
	rep.put("mpp.coord_self_ms."+c, "ms", self)
	shard := 0.0
	if selectClasses[c] {
		shard = median(ls.shardMS)
		rep.put("core.shard_exec_ms."+c, "ms", shard)
		rep.put("mpp.shards_contacted."+c, "count", median(ls.shards))
	}
	rep.put("trace.unaccounted_ms."+c, "ms", median(untraced)-(parse/1e3+self+shard))
	if joinClasses[c] {
		rep.put("shardrpc.shuffle_wire_bytes."+c, "bytes", median(d(func(x delta) float64 { return x.wireBytes })))
	} else {
		rep.put("shardrpc.wire_bytes."+c, "bytes", median(d(func(x delta) float64 { return x.wireBytes })))
		rep.put("shardrpc.wire_packets."+c, "count", median(d(func(x delta) float64 { return x.wirePackets })))
	}
	rep.put("clusterfs.bytes_written."+c, "bytes", median(d(func(x delta) float64 { return x.fsBytesW })))
	rep.put("clusterfs.writes."+c, "count", median(d(func(x delta) float64 { return x.fsWrites })))
	rep.put("go.allocs."+c, "count", median(d(func(x delta) float64 { return x.allocs })))
	rep.put("go.alloc_bytes."+c, "bytes", median(d(func(x delta) float64 { return x.allocBytes })))
	rep.put("go.gc_cycles."+c, "count", mean(d(func(x delta) float64 { return x.gcs })))
}

func pick(ds []delta, f func(delta) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

// openPhase opens a phase span that the statements below it hang off,
// and returns the function that closes it.
func (b *bench) openPhase(name string) func() {
	b.phase = b.tr.open(0, name, time.Now())
	id := b.phase
	return func() {
		b.tr.close(id, time.Now())
		b.phase = 0
	}
}

// ping times shardrpc round trips from a fresh pool to every server.
func (b *bench) ping() (float64, error) {
	pool := shardrpc.NewPool("perfbench")
	defer pool.Close()
	var us []float64
	for _, srv := range b.cl.alive() {
		if _, err := pool.Ping(srv.Addr()); err != nil { // dials
			return 0, fmt.Errorf("ping %s: %w", srv.Node(), err)
		}
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, err := pool.Ping(srv.Addr()); err != nil {
				return 0, fmt.Errorf("ping %s: %w", srv.Node(), err)
			}
			b.tr.add(0, "shardrpc.ping", t0, time.Now())
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

// saveMeta times Table.SaveMeta on every shard's transactions slice,
// reached through each server's engine: the per-DML persist cost.
func (b *bench) saveMeta() (float64, error) {
	var out []float64
	for _, srv := range b.cl.alive() {
		for _, id := range srv.Shards() {
			db, ok := srv.Engine(id)
			if !ok {
				continue
			}
			tbl, ok := db.Table("transactions")
			if !ok {
				return 0, fmt.Errorf("shard %d on %s has no transactions table", id, srv.Node())
			}
			t0 := time.Now()
			if err := tbl.SaveMeta(); err != nil {
				return 0, fmt.Errorf("SaveMeta shard %d: %w", id, err)
			}
			b.tr.add(0, "columnar.savemeta", t0, time.Now())
			out = append(out, ms(time.Since(t0)))
		}
	}
	return median(out), nil
}
