package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Comparison of two sets of runs, for a change that claims a gain or
// must show it costs nothing. Each input file holds the standard output
// of any number of runs, concatenated; a run's {"detail": ...} line
// names its workload and the result line after it carries its metrics.
// Runs pair up in file order within a workload.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// runSet maps workload (suffixed " (traced)" for traced runs) to the
// metrics of each run in file order.
type runSet map[string][]map[string]metric

func compareMain(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fl.String("bench", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() != 2 {
		return fmt.Errorf("usage: compare [--bench BENCHMARK.json] BASE HEAD")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRuns(fl.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRuns(fl.Arg(1))
	if err != nil {
		return err
	}
	compare(w, spec, base, head)
	return nil
}

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(runSet)
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case strings.HasPrefix(string(line), `{"detail":`):
			var d struct {
				Detail struct {
					Fingerprint struct {
						Workload string `json:"workload"`
						Trace    bool   `json:"trace"`
					} `json:"fingerprint"`
				} `json:"detail"`
			}
			if err := json.Unmarshal(line, &d); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			workload = d.Detail.Fingerprint.Workload
			if d.Detail.Fingerprint.Trace {
				workload += " (traced)"
			}
		case strings.HasPrefix(string(line), `{"correct":`):
			var r result
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if workload == "" {
				return nil, fmt.Errorf("%s: result line without a detail line before it", path)
			}
			out[workload] = append(out[workload], r.Metrics)
			workload = ""
		}
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, each side's median and
// quartiles, the share of pairs the head side won, and a verdict. A
// metric whose run-to-run spread (quartile distance over median) on
// either side exceeds its bound is unresolved, unless every head run
// beats or loses to every base run.
func compare(w io.Writer, spec benchSpec, base, head runSet) {
	var names []string
	for wl := range base {
		if _, ok := head[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range names {
		fmt.Fprintf(w, "== %s: %d base runs, %d head runs\n", wl, len(base[wl]), len(head[wl]))
		fmt.Fprintf(w, "%-44s %-34s %-34s %-8s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head won", "verdict")
		for _, m := range metrics {
			bv, hv := values(base[wl], m.Name), values(head[wl], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(bv)
			h1, h2, h3 := quartiles(hv)
			won, pairs := 0, min(len(bv), len(hv))
			for i := 0; i < pairs; i++ {
				if better(m, hv[i], bv[i]) {
					won++
				}
			}
			fmt.Fprintf(w, "%-44s %-34s %-34s %-8s %s\n", m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", b2, b1, b3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", h2, h1, h3),
				fmt.Sprintf("%d/%d", won, pairs), judge(m, bv, hv, won, pairs))
		}
	}
}

func values(runs []map[string]metric, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// better reports whether a beats b in the metric's direction; ties
// count for neither side.
func better(m specMetric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

func judge(m specMetric, bv, hv []float64, won, pairs int) string {
	b1, b2, b3 := quartiles(bv)
	h1, h2, h3 := quartiles(hv)
	if m.Bound == nil {
		if b2 == h2 {
			return "equal medians"
		}
		return "informational (no bound)"
	}
	bound := *m.Bound
	spread := math.Max((b3-b1)/math.Abs(b2), (h3-h1)/math.Abs(h2))
	allBetter, allWorse := true, true
	for _, h := range hv {
		for _, b := range bv {
			allBetter = allBetter && better(m, h, b)
			allWorse = allWorse && better(m, b, h)
		}
	}
	switch {
	case allBetter:
		return "improved (every head run beats every base run)"
	case allWorse:
		return "regressed (every head run loses to every base run)"
	case spread > bound:
		return fmt.Sprintf("unresolved (spread %.3g > bound %.3g)", spread, bound)
	}
	worse := (h2 - b2) / math.Abs(b2)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return fmt.Sprintf("regressed (%.3g worse, bound %.3g)", worse, bound)
	case worse < 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(h2-b2) > b3-b1:
		return fmt.Sprintf("improved (%.3g better)", -worse)
	}
	return fmt.Sprintf("within bound (%+.3g worse)", worse)
}
