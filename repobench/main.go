// Command repobench is the repository benchmark. It runs one of four
// workloads in process, checks every output it produces, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its standard output:
//
//	repobench --workload pod-fleet --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	pod-fleet    compose the 1024-GPU pod fleet and schedule the fixed
//	             500-job pod-schedule stream (routing-heavy)
//	fleet-chaos  seeded pod-shaped chaossim scenarios under the full
//	             invariant set (auditor-heavy)
//	paper-suite  the paper experiments T1-T4, F9-F16, A1-A4, X1-X2 at
//	             standard scale (waterfill- and collective-heavy)
//	mcsd-cycle   submit -> drain -> read cycles against an in-process
//	             mcs server over one keep-alive HTTP connection
//
// README.md in this directory defines every metric, the layer-to-metric
// map and the Table IV reference values.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: it parses the flags, measures the workload
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: pod-fleet, fleet-chaos, paper-suite or mcsd-cycle")
		seed    = fs.Int64("seed", 1, "input seed (fleet-chaos scenarios, mcsd-cycle fault schedules)")
		seconds = fs.Int("seconds", 10, "measurement budget in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		spanDir = fs.String("span-dir", ".bench_build/spans", "directory the traced run writes its host-time span log to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "repobench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{Seed: *seed, Budget: time.Duration(*seconds) * time.Second}

	var res *result
	var err error
	if *trace == 1 {
		res, err = measureLayers(newW, cfg, *spanDir)
	} else {
		res, err = measure(newW, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	res.print(stdout, *name)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(config) workload{
	"pod-fleet":   newPodFleet,
	"fleet-chaos": newFleetChaos,
	"paper-suite": newPaperSuite,
	"mcsd-cycle":  newMCSDCycle,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is one run's outcome: the correctness tally, the metrics in
// report order, and the output digest.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Extra are metrics printed for reading but not part of the JSON.
	Extra  []metric
	Digest string
	// Notes are extra human-readable lines printed before the JSON.
	Notes []string
}

// print writes the human-readable metric lines and, last, the one-line
// JSON result object that ends the output.
func (r *result) print(w io.Writer, workload string) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	errFrac := 0.0
	if r.Attempted > 0 {
		errFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-14s %-30s %16d %s\n", workload, "ops_attempted", r.Attempted, "count")
	fmt.Fprintf(w, "%-14s %-30s %16.6g %s\n", workload, "errors_frac", errFrac, "frac")
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-14s %-30s %16.6g %s\n", workload, m.Name, m.Value, m.Unit)
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	for _, m := range r.Extra {
		fmt.Fprintf(w, "%-14s %-30s %16.6g %s (not gated)\n", workload, m.Name, m.Value, m.Unit)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "%-14s %-30s %s\n", workload, "output_digest", r.Digest)
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// errCheck marks an op whose outputs failed a correctness check, as
// opposed to an op that could not run at all.
var errCheck = errors.New("check failed")
