// Command perfbench is the repository's benchmark. One invocation runs one
// workload in this fresh process, checks every op's output, and prints the
// result as one JSON line:
//
//	perfbench -root . -workload frame-atfim -seed 1 -seconds 13 -trace 0
//
// With -trace 0 it reports every end-to-end metric declared in
// BENCHMARK.json; with -trace 1 it makes the traced run and reports every
// per-layer metric (0 for a layer the workload does not run), and writes
// the benchmark's own spans as Chrome trace JSON. run.sh builds this
// program and pimfarm from source and then runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// benchVersion names the benchmark revision; it is part of every result
// document's provenance.
const benchVersion = "perfbench/1"

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(context.Context, *run) error{
	"frame-atfim": runFrame,
	"serve-local": func(ctx context.Context, r *run) error { return runServe(ctx, r, false) },
	"serve-dist":  func(ctx context.Context, r *run) error { return runServe(ctx, r, true) },
}

// run is one benchmark invocation: its inputs, the ops it attempted, and
// the metrics it measured.
type run struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	spans     *spanLog // nil unless trace
	attempted int
	failed    int
	values    map[string]float64
	details   map[string]any // sample counts, phases and checks for the report
	problems  []string
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) detail(name string, v any) { r.details[name] = v }

// fail records a failed check; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout holding BENCHMARK.json")
		workload = flag.String("workload", "", "workload to run (frame-atfim, serve-local, serve-dist)")
		seed     = flag.Int64("seed", 1, "seed of the serve generator's spec order")
		seconds  = flag.Int("seconds", 13, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	)
	flag.Parse()
	if err := mainErr(*root, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(root, workload string, seed int64, seconds int, trace bool) error {
	fn, ok := workloadFuncs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	r := &run{
		root: root, workload: workload, seed: seed, trace: trace,
		seconds: time.Duration(seconds) * time.Second,
		values:  map[string]float64{},
		details: map[string]any{},
	}
	if trace {
		r.spans = newSpanLog()
	}
	if err := fn(context.Background(), r); err != nil {
		return err
	}

	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range declared {
		v, ok := r.values[m.Name]
		if !ok && !trace {
			return fmt.Errorf("workload %s measured no %s", workload, m.Name)
		}
		// A per-layer metric of a layer this workload does not run is 0.
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no op", workload)
	}

	doc := map[string]any{
		"schema":     "perfbench/result/v1",
		"provenance": provenance(root, seed),
		"workload":   workload,
		"seconds":    seconds,
		"trace":      trace,
		"result":     res,
		"details":    r.details,
		"problems":   r.problems,
		"unreported": unreported(r.values, declared),
	}
	if err := writeReport(root, r, doc); err != nil {
		return err
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// unreported lists measured values that the declared metric set does not
// carry (they stay in the report document only).
func unreported(values map[string]float64, declared []specMetric) map[string]float64 {
	out := map[string]float64{}
	for k, v := range values {
		out[k] = v
	}
	for _, m := range declared {
		delete(out, m.Name)
	}
	return out
}

// writeReport stores the result document, and in a traced run the span
// log, under .bench_build/perfbench/.
func writeReport(root string, r *run, doc map[string]any) error {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%v", r.workload, r.seed, r.trace)
	if r.spans != nil {
		path := filepath.Join(dir, base+".trace.json")
		if err := r.spans.writeChrome(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		doc["trace_file"] = path
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), body, 0o644)
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names and units it must report.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pinnedProcs is the GOMAXPROCS of this process and every program process
// it starts.
const pinnedProcs = 2

func init() { runtime.GOMAXPROCS(pinnedProcs) }
