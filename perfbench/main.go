// Command perfbench is the study's end-to-end benchmark. It drives four
// workloads through the public entry points (core.Run, core.RunFromStore,
// service.New over loopback), checks every run's output against a
// reference digest, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, each a median over
// repeated units of work measured in fresh child processes (so CPU time and
// peak RSS are per unit). With --trace 1 it re-composes the workload's
// pipeline from the layers' exported functions, times each call from the
// outside, and reports the per-layer metrics, the trace's coverage and
// overhead, and whether its output digest equals the untraced run's.
//
// The last line of standard output is the result; the lines before it are
// a human-readable summary and one "record" line that carries the stamp
// (machine, toolchain, commit, seed, shape) the compare tool keys on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds every archive and scratch file a run writes, relative to
// the directory the benchmark runs from; it is emptied before and after.
const workDir = ".bench_build/work"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark run's outcome.
type run struct {
	res     result
	notes   []string          // human-readable lines
	details map[string]any    // extra record fields (per-rate counts, parts)
	layers  map[string]metric // per-layer metrics (trace mode)
}

func newRun() *run {
	return &run{
		res:     result{Correct: true, Metrics: map[string]metric{}},
		details: map[string]any{},
		layers:  map[string]metric{},
	}
}

func (r *run) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed unit of work; the run's result is then incorrect.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Correct = false
	r.note("FAIL: "+format, args...)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// why the workload exists, printed with its results.
	why string
	// shape is the workload's size, part of every result's stamp.
	shape map[string]any
	// measure runs the untraced workload for the given time budget.
	measure func(r *run, seed int64, budget time.Duration) error
	// trace runs the traced re-composition (after an untraced reference).
	trace func(r *run, seed int64, budget time.Duration) error
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.RemoveAll(workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(workDir)

	r := newRun()
	budget := time.Duration(*seconds) * time.Second
	var err error
	if *trace == 1 {
		err = w.trace(r, *seed, budget)
	} else {
		err = w.measure(r, *seed, budget)
	}
	if err != nil {
		// An error that prevents measuring is not a result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.RemoveAll(workDir)
		os.Exit(1)
	}
	if r.res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no work\n", w.name)
		os.RemoveAll(workDir)
		os.Exit(1)
	}
	if *trace == 1 {
		r.res.Metrics = r.layers
	}
	emit(r, w, *seed, *seconds, *trace == 1)
}

// emit prints the summary, the stamped record and the result line.
func emit(r *run, w workload, seed int64, seconds int, traced bool) {
	fmt.Printf("workload %s (seed %d, %ds, trace %v): %s\n", w.name, seed, seconds, traced, w.why)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, name := range sortedKeys(r.res.Metrics) {
		m := r.res.Metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-40s %14.6g share (%d of %d)\n", "failed_share",
		float64(r.res.Failed)/float64(r.res.Attempted), r.res.Failed, r.res.Attempted)
	rec := map[string]any{
		"record":  1,
		"stamp":   stamp(w.name, seed, seconds, traced, w.shape),
		"result":  r.res,
		"details": r.details,
	}
	b, err := json.Marshal(rec)
	if err == nil {
		fmt.Println(string(b))
	}
	b, err = json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// subdir makes a fresh directory under workDir.
func subdir(name string) (string, error) {
	d := filepath.Join(workDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
