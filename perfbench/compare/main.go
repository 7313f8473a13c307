// Command compare judges a change against its parent from two sets of
// benchmark results, run as alternating pairs with the same seeds:
//
//	go run ./compare [-bench ../BENCHMARK.json] parent.out change.out
//
// Each file holds the standard output of benchmark runs; compare reads the
// "record" lines. For every workload and metric it prints each side's
// median and quartiles, the share of pairs the change won, and a verdict
// against the metric's bound from BENCHMARK.json: better, same, worse, or
// unresolved when the parent's own spread is wider than the bound. It
// refuses results whose stamps (machine, toolchain, shape, settings)
// differ, and a side whose records come from more than one code version.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"clientres/perfbench/stats"
)

// record is one benchmark run's stamped result line.
type record struct {
	Stamp  map[string]any `json:"stamp"`
	Result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// benchMetric is one metric definition of BENCHMARK.json.
type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// codeKeys identify the code under test; every other stamp key must agree
// across both sides.
var codeKeys = map[string]bool{"commit": true, "source": true, "seed": true}

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "benchmark definition with the metrics' bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] parent.out change.out")
		os.Exit(2)
	}
	if err := run(*benchPath, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(benchPath, parentPath, changePath string, w io.Writer) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	defs := map[string]benchMetric{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		defs[m.Name] = m
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if err := checkStamps(parent, change); err != nil {
		return err
	}
	report(w, defs, parent, change)
	return nil
}

// readRecords extracts the record lines of a benchmark output file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), "{") || !strings.Contains(string(line), `"record":1`) {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return out, nil
}

// checkStamps refuses a comparison across machines, toolchains, shapes or
// settings, a side that mixes code versions, and pairs run on different
// seeds.
func checkStamps(parent, change []record) error {
	var errs []error
	ref := parent[0].Stamp
	for side, recs := range map[string][]record{"parent": parent, "change": change} {
		for i, r := range recs {
			for k, v := range r.Stamp {
				if k == "workload" || codeKeys[k] {
					continue
				}
				if k == "shape" && r.Stamp["workload"] != ref["workload"] {
					continue
				}
				if fmt.Sprint(v) != fmt.Sprint(ref[k]) {
					errs = append(errs, fmt.Errorf("%s record %d: stamp %s is %v, want %v", side, i, k, v, ref[k]))
				}
			}
			for _, k := range []string{"commit", "source"} {
				if fmt.Sprint(r.Stamp[k]) != fmt.Sprint(recs[0].Stamp[k]) {
					errs = append(errs, fmt.Errorf("%s record %d: %s %v differs from the side's first %v", side, i, k, r.Stamp[k], recs[0].Stamp[k]))
				}
			}
		}
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	for wl, ps := range pw {
		for i, p := range ps {
			if i < len(cw[wl]) && fmt.Sprint(p.Stamp["seed"]) != fmt.Sprint(cw[wl][i].Stamp["seed"]) {
				errs = append(errs, fmt.Errorf("%s pair %d: parent seed %v, change seed %v", wl, i, p.Stamp["seed"], cw[wl][i].Stamp["seed"]))
			}
		}
	}
	return errors.Join(errs...)
}

func byWorkload(rs []record) map[string][]record {
	m := map[string][]record{}
	for _, r := range rs {
		wl := fmt.Sprint(r.Stamp["workload"])
		m[wl] = append(m[wl], r)
	}
	return m
}

// report prints one row per workload and metric.
func report(w io.Writer, defs map[string]benchMetric, parent, change []record) {
	pw, cw := byWorkload(parent), byWorkload(change)
	var wls []string
	for wl := range pw {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-15s %-34s %12s %12s %12s %12s %12s %12s %7s %s\n",
		"workload", "metric", "parent_med", "parent_q1", "parent_q3", "change_med", "change_q1", "change_q3", "won", "verdict")
	for _, wl := range wls {
		ps, cs := pw[wl], cw[wl]
		if len(cs) == 0 {
			fmt.Fprintf(w, "%-15s (no change runs)\n", wl)
			continue
		}
		for _, name := range metricNames(ps) {
			pv, cv := values(ps, name), values(cs, name)
			def, known := defs[name]
			lower := !known || def.Better != "higher"
			wins, _, pairs := stats.PairWins(pv, cv, lower)
			verdict := "no bound"
			if known && def.Bound != nil {
				verdict = stats.Verdict(pv, cv, lower, *def.Bound)
			}
			pq1, pq3 := stats.Quartiles(pv)
			cq1, cq3 := stats.Quartiles(cv)
			fmt.Fprintf(w, "%-15s %-34s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-3d %s\n",
				wl, name, stats.Median(pv), pq1, pq3, stats.Median(cv), cq1, cq3, wins, pairs, verdict)
		}
		pf, cf := failures(ps), failures(cs)
		if cf > pf {
			fmt.Fprintf(w, "%-15s more failures on the change (%d) than the parent (%d): no gain counts\n", wl, cf, pf)
		}
	}
}

func metricNames(rs []record) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		for k := range r.Result.Metrics {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Result.Failed
	}
	return n
}
