package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"dashdb/internal/types"
)

// tinyRun runs one workload at a tiny scale, fast enough for a test.
func tinyRun(t *testing.T, workload string, trace bool, corruptStmt string) *report {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 3000, root: "..", spanDir: t.TempDir()}
	rep, err := run(cfg, corruptStmt)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return rep
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload emits exactly the metrics BENCHMARK.json names, each
// with its unit: the end-to-end set untraced, the per-layer set traced.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	spec := loadSpec(t)
	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, wl := range workloads {
			rep := tinyRun(t, wl, trace, "")
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v", wl, trace,
					rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted, rep.Detail["errors"])
			}
			for _, m := range want {
				got, ok := rep.Result.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Result.Metrics) != len(want) {
				var names []string
				for n := range rep.Result.Metrics {
					names = append(names, n)
				}
				sort.Strings(names)
				t.Errorf("%s trace=%v: %d metrics, want %d: %v", wl, trace, len(rep.Result.Metrics), len(want), names)
			}
		}
	}
}

// A damaged oracle answer must fail the run: the gate is not vacuous.
func TestCorruptedOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	q := analyticQueries(3000)
	rep := tinyRun(t, "analytic", false, q[len(q)-1])
	if rep.Result.Correct || rep.Result.Failed == 0 {
		t.Fatalf("corrupted oracle passed: correct=%v failed=%d", rep.Result.Correct, rep.Result.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail = %v at p%v (ok=%v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples must be undefined")
	}
}

func TestCompareRows(t *testing.T) {
	row := func(k string, n int64, f float64) types.Row {
		return types.Row{types.NewString(k), types.NewInt(n), types.NewFloat(f)}
	}
	want := []types.Row{row("a", 1, 0.1), row("b", 2, 1e6)}
	near := 1e6 * (1 + 1e-15) // a few ulps off
	cases := []struct {
		name    string
		got     []types.Row
		ordered bool
		want    verdict
	}{
		{"identical", []types.Row{row("a", 1, 0.1), row("b", 2, 1e6)}, true, exact},
		{"reordered unordered", []types.Row{row("b", 2, 1e6), row("a", 1, 0.1)}, false, exact},
		{"reordered ordered", []types.Row{row("b", 2, 1e6), row("a", 1, 0.1)}, true, wrong},
		{"float rounding", []types.Row{row("a", 1, 0.1), row("b", 2, near)}, true, inexact},
		{"lost row in a sum", []types.Row{row("a", 1, 0.1), row("b", 2, 1e6-0.01)}, true, wrong},
		{"count off by one", []types.Row{row("a", 1, 0.1), row("b", 3, 1e6)}, true, wrong},
		{"missing row", []types.Row{row("a", 1, 0.1)}, true, wrong},
	}
	for _, c := range cases {
		if got, why := compareRows(c.got, want, c.ordered); got != c.want {
			t.Errorf("%s: verdict %d (%s), want %d", c.name, got, why, c.want)
		}
	}
}
