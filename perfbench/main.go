// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the program's public entry points —
// serve.Server and serve.Client over loopback TCP, cluster.New, or the
// simulators network.RunOpenLoop and deflect.RunLoad — checks answers
// against the paper's reference implementations off the clock, and
// prints one JSON result line as the last line of standard output:
//
//	perfbench --workload scalar-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate
// run that records spans around the benchmark's own calls into each
// layer, prints the per-layer metrics and a ledger of each layer's
// share of a request, and writes the spans under .bench_build/spans.
// run.sh builds and runs it; RESULTS.md describes the metrics, the
// workloads and the measured numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
}

// report is what one workload run hands back: query accounting, the
// metrics of the selected mode, and notes for standard error.
type report struct {
	attempted, failed int64
	wrong             int64    // answers the checker rejected (also in failed)
	broken            []string // violated conservation identities
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) breakf(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"scalar-hot":      runScalarHot,
	"batch-k128":      runBatchK128,
	"cluster-forward": runClusterForward,
	"sim":             runSim,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cluster-forward, batch-k128, scalar-hot or sim")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 records spans and prints per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for span files and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *outDir,
	}
	rep, err := fn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "%s: %s\n", *name, n)
	}
	for _, b := range rep.broken {
		fmt.Fprintf(stderr, "%s: CONSERVATION BROKEN: %s\n", *name, b)
	}
	if rep.wrong > 0 {
		fmt.Fprintf(stderr, "%s: WRONG ANSWERS: %d\n", *name, rep.wrong)
	}
	res := result{
		Correct:   rep.wrong == 0 && len(rep.broken) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
