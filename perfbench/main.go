// Command perfbench is the repository's benchmark: point DML, analytic
// scatter plus shuffle joins, and failover on a 3-node NetCluster of
// in-process shard servers over loopback TCP, with every answer checked.
//
//	perfbench --workload point|analytic --seed N --seconds S --trace 0|1
//	perfbench compare [--bench BENCHMARK.json] BASE.jsonl HEAD.jsonl
//
// A run prints a human-readable report, then one {"detail": ...} line
// (environment fingerprint, sample counts, tail percentiles, failover
// drift, parity), then the result object as its last line. --trace 0
// reports the end-to-end metrics; --trace 1 runs statements one at a
// time with layer spans and counters and reports the per-layer metrics.
// It exits non-zero on any wrong answer. perfbench/run.sh builds it from
// source and runs it from the checkout root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// runLimit stops a run that would overrun its 180-second budget.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	cfg := config{scale: 400_000, root: ".", spanDir: filepath.Join(".bench_build", "perfbench", "spans")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "point or analytic")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run size: a run measures about 3 times this many seconds on a 2-vCPU host")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	})
	rep, err := run(cfg, "")
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Result.Correct {
		for _, e := range rep.Detail["errors"].([]string) {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
		}
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's full output.
type report struct {
	Result result
	Detail map[string]any
	order  []string // metric names in report order
}

func (r *report) put(name, unit string, v float64) {
	r.Result.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

func (r *report) print(w io.Writer) error {
	for _, name := range r.order {
		m, ok := r.Result.Metrics[name]
		if !ok {
			continue // dropped for having no samples
		}
		fmt.Fprintf(w, "%-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (share %.6g)\n", r.Result.Attempted, r.Result.Failed,
		float64(r.Result.Failed)/float64(r.Result.Attempted))
	for _, v := range []any{map[string]any{"detail": r.Detail}, r.Result} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// newRNG gives each (seed, phase) its own stream.
func newRNG(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt*1_009))
}

// run executes one benchmark run. corruptStmt, when set, names an
// analytic statement whose oracle answer is deliberately damaged.
func run(cfg config, corruptStmt string) (*report, error) {
	b := &bench{cfg: cfg, layers: make(map[string]*layerStats)}
	if cfg.trace {
		b.tr = newTracer()
	}
	prep := map[string]float64{} // wall seconds of the unmeasured steps
	t0 := time.Now()
	b.data = newDataset(cfg.scale, cfg.seed)
	b.queries = analyticQueries(cfg.scale)
	prep["generate"] = time.Since(t0).Seconds()
	stmts := append([]string(nil), b.queries...)
	for _, j := range joinTemplates {
		stmts = append(stmts, j.sql)
	}
	t0 = time.Now()
	var err error
	if b.oracle, err = buildOracle(b.data, stmts); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	prep["oracle"] = time.Since(t0).Seconds()
	if corruptStmt != "" {
		b.oracle.corrupt(corruptStmt)
	}

	rep := &report{Result: result{Metrics: make(map[string]metric)}}
	rep.Detail = map[string]any{
		"prep_seconds": prep,
		"fingerprint":  fingerprint(cfg),
	}
	if cfg.trace {
		err = b.traced(rep, prep)
	} else {
		err = b.untraced(rep, prep)
	}
	if err != nil {
		return nil, err
	}
	rep.Result.Attempted = b.attempted.Load()
	for name, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s has no samples", name)
			delete(rep.Result.Metrics, name)
		}
	}
	rep.Result.Failed = b.failed.Load()
	rep.Result.Correct = rep.Result.Failed == 0
	rep.Detail["parity"] = map[string]any{
		"oracle":                "single-node core.DB",
		"float_tolerance":       floatTolerance,
		"answers_inexact_float": b.inexact.Load(),
	}
	rep.Detail["errors"] = b.errs
	rep.Detail["failed_share"] = float64(rep.Result.Failed) / float64(max(1, rep.Result.Attempted))
	if b.tr != nil {
		path, err := b.tr.write(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.Detail["spans"] = path
	}
	return rep, nil
}

// datasetDetail describes the loaded dataset; call it right after a
// load, before the rows are compacted away.
func (b *bench) datasetDetail() map[string]any {
	return map[string]any{
		"transactions_rows": b.data.nTxns, "accounts_rows": b.data.nAccounts,
		"clusterfs_bytes_after_load":      b.cl.fs.TotalBytes(),
		"clusterfs_bytes_written_by_load": b.cl.fs.Stats().BytesWritten,
		"shard_buffer_pool_bytes":         b.cl.nc.ShardAssigns()[0].MemBytes,
	}
}

// untraced runs the three phases in each of the rounds, each on a
// freshly booted and loaded cluster, and reports the end-to-end metrics.
func (b *bench) untraced(rep *report, prep map[string]float64) error {
	sz := phaseSizes(b.cfg.seconds, b.cfg.workload)
	var st setupTimes
	var an analyticOut
	var pt pointOut
	var fo failoverOut
	var roundFail [][]float64 // each round's failover and rejoin times, for the drift check
	var roundRejoin [][]float64
	phase := map[string]float64{}
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if r > 0 {
			// The previous round compacted the generated rows away.
			b.data = newDataset(b.cfg.scale, b.cfg.seed)
		}
		prep["generate"] += time.Since(t0).Seconds()
		t0 = time.Now()
		cl, err := b.boot(&st)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.use(cl)
		prep["setup_all"] += time.Since(t0).Seconds()
		if r == 0 {
			rep.Detail["dataset"] = b.datasetDetail()
		}
		b.data.compact()
		t0 = time.Now()
		b.warmUp()
		prep["warmup"] += time.Since(t0).Seconds()

		t0 = time.Now()
		b.analytic(&an, sz.AnalyticPasses, false)
		t1 := time.Now()
		b.warmPoint()
		t2 := time.Now()
		b.point(&pt, sz.PointOps, false)
		t3 := time.Now()
		var rf failoverOut
		b.failover(&rf, sz.FailCycles, false)
		phase["analytic"] += t1.Sub(t0).Seconds()
		prep["warmup"] += t2.Sub(t1).Seconds()
		phase["point"] += t3.Sub(t2).Seconds()
		phase["failover"] += time.Since(t3).Seconds()
		cl.close()

		fo.fail = append(fo.fail, rf.fail...)
		fo.rejoin = append(fo.rejoin, rf.rejoin...)
		roundFail = append(roundFail, rf.fail)
		roundRejoin = append(roundRejoin, rf.rejoin)
	}
	rep.Detail["phase_seconds"] = phase

	rep.put("setup_s", "s", median(st.total))
	rep.put("point_select_p50_ms", "ms", median(pt.sel))
	rep.put("insert_p50_ms", "ms", median(pt.ins))
	rep.put("update_p50_ms", "ms", median(pt.upd))
	rep.put("point_ops_per_s", "1/s", pt.opsPerSec())
	rep.put("scatter_p50_ms", "ms", median(an.scatter))
	v, pct, _ := tail(an.scatter)
	rep.put("scatter_tail_ms", "ms", v)
	rep.put("join_p50_ms", "ms", median(an.join))
	rep.put("failover_ms", "ms", median(fo.fail))
	rep.put("rejoin_ms", "ms", median(fo.rejoin))

	tails := map[string]any{"scatter_tail_ms": map[string]any{"percentile": pct, "samples": len(an.scatter)}}
	// The point statements' tails are reported here only, not as
	// metrics. A point statement takes 1 to 22 ms, so its tail is made of
	// the statements that a garbage collection or a stall of the shared
	// host hit, and a run during a noisy spell doubles it. On a 2-vCPU
	// host their spread over ten runs reached 0.27 (UPDATE), 0.33
	// (INSERT) and 0.68 (SELECT), past the largest bound the benchmark
	// format allows; the gated metrics of the same runs stayed within 0.19.
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"point_select", pt.sel}, {"insert", pt.ins}, {"update", pt.upd}} {
		if v, pct, ok := tail(c.xs); ok {
			tails[c.name+"_tail_ms"] = map[string]any{"value": v, "percentile": pct, "samples": len(c.xs), "gated": false}
		}
	}
	rep.Detail["tails"] = tails
	rep.Detail["samples"] = map[string]int{
		"setup": len(st.total), "point_select": len(pt.sel), "insert": len(pt.ins), "update": len(pt.upd),
		"scatter": len(an.scatter), "join": len(an.join), "failover": len(fo.fail), "rejoin": len(fo.rejoin),
	}
	rep.Detail["sizes"] = map[string]any{"rounds": rounds, "per_round": sz}
	rep.Detail["failover_drift"] = drift(roundFail, roundRejoin)
	rep.Detail["shuffle_inboxes"] = inboxDetail(an)
	return nil
}

func inboxDetail(an analyticOut) map[string]int {
	return map[string]int{"joins": len(an.join), "outlived_reply": an.inboxLate, "left_after_settle": an.inboxMax}
}

// drift compares the first and second half of each cluster's failover
// cycles, pooled over the clusters. AddNode appends a node entry on
// every rejoin and keeps the dead ones, so growth in rejoin_ms with the
// cycles a cluster has been through would show as a second half slower
// than the first.
func drift(fail, rejoin [][]float64) map[string]any {
	halves := func(runs [][]float64) (float64, float64) {
		var first, second []float64
		for _, xs := range runs {
			h := len(xs) / 2
			first = append(first, xs[:h]...)
			second = append(second, xs[len(xs)-h:]...)
		}
		return median(first), median(second)
	}
	f1, f2 := halves(fail)
	r1, r2 := halves(rejoin)
	cycles := 0
	for _, xs := range rejoin {
		cycles = max(cycles, len(xs))
	}
	return map[string]any{
		"clusters":                len(rejoin),
		"cycles_per_cluster":      cycles,
		"failover_first_half_ms":  finite(f1),
		"failover_second_half_ms": finite(f2),
		"rejoin_first_half_ms":    finite(r1),
		"rejoin_second_half_ms":   finite(r2),
	}
}

// finite maps NaN to nil, which JSON can encode.
func finite(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// fingerprint identifies the environment and inputs of a run.
func fingerprint(cfg config) map[string]any {
	rev := "unknown (not built in a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	src, err := sourceHash(cfg.root)
	if err != nil {
		src = "error: " + err.Error()
	}
	clients := map[string]int{"point": 1, "analytic": 1, "failover": 1} // per phase
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_sha":       rev,
		"source_sha256": src,
		"clusterfs":     fsBackend,
		"scale":         cfg.scale,
		"seed":          cfg.seed,
		"workload":      cfg.workload,
		"trace":         cfg.trace,
		"seconds":       cfg.seconds,
		"topology": map[string]any{
			"nodes": clusterNodes, "shards": clusterShards,
			"cores_per_node": nodeCores, "mem_bytes_per_node": nodeMemBytes,
		},
		"clients": clients,
	}
}

// sourceHash digests every Go source and go.mod under root, skipping
// hidden directories such as the build output, so that runs from a
// checkout without git history still name the code they measured.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
