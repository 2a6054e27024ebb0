// Command perfbench is the repository's benchmark. One run takes a
// workload name and a seed, generates that workload's inputs from the
// seed, drives the program through its user entry points (core.Build,
// core.Ingest, serve.New over loopback HTTP), checks the program's
// outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload construct --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans around every call it makes into a
// layer, writes them to .bench_build/perfbench-work/trace-<workload>-<seed>.jsonl
// when it ends, and carries the per-layer metrics instead. The exit
// code is 0 only when every output check passed and the load generator
// kept to its schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny inputs, for the package's own tests
	work     string // scratch directory for stores and traces, in the checkout
}

// setupRepeats is how many times a run sets up; it reports the median.
const setupRepeats = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport() *report { return &report{correct: true, metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"construct":   runConstruct,
	"serve-read":  func(cfg config) (*report, error) { return runServe(cfg, false) },
	"serve-mixed": func(cfg config) (*report, error) { return runServe(cfg, true) },
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "construct, serve-read or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.work = filepath.Join(".bench_build", "perfbench-work")
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload construct|serve-read|serve-mixed, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

// resultLine renders the final JSON object (encoding/json sorts the
// metric names). A NaN or infinite value cannot be encoded in JSON and
// is an error of the benchmark itself.
func (r *report) resultLine() ([]byte, error) {
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics})
}
