// Command tracectl is the trace-analytics front end: it analyzes an
// exported Chrome trace (obs.WriteTrace output) or runs a seeded
// scenario itself, then prints per-job time attribution, critical
// paths, fleet blame totals, exact-percentile histograms, and an SLO
// health verdict.
//
// Usage:
//
//	tracectl -file trace.json                 # analyze an exported trace
//	tracectl -seed 1                          # run + analyze a seeded fleet scenario
//	tracectl -seed 1 -fault-seed 3            # ... with a seeded fault schedule
//	tracectl -seed 1 -pod                     # ... pod-shaped spine/leaf fleet
//	tracectl -seed 1 -slo "p99-wait<=1m util>=0.2"
//	tracectl -file trace.json -json -top 10
//
// Output is deterministic: the same input always prints the same
// bytes. Exit codes: 0 healthy/no SLO, 1 run or I/O error, 2 bad
// flags, 3 SLO violated.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"composable/internal/fleetcli"
	"composable/internal/obs/analyze"
	"composable/internal/scengen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: parse flags, obtain a trace (file or
// fresh scenario run), analyze, render, and score the SLO.
func run(args []string, stdout, stderr io.Writer) int {
	c := fleetcli.New("tracectl", stdout, stderr)
	c.FS.Int64Var(&c.Seed, "seed", 1, "scenario seed when running (ignored with -file)")
	c.FS.BoolVar(&c.Pod, "pod", false, "draw a pod-shaped (multi-chassis spine/leaf) scenario from the seed")
	c.FS.Int64Var(&c.FaultSeed, "fault-seed", 0, "arm a seeded fault schedule (0 = fault-free)")
	c.FS.IntVar(&c.Jobs, "jobs", 0, "trim the scenario stream to this many jobs")
	c.FS.StringVar(&c.SLOSpec, "slo", "", `declarative SLO, e.g. "p99-wait<=800ms goodput>=2.5 util>=0.4 max-failed<=0"`)
	c.FS.StringVar(&c.Trace, "emit-trace", "", "in run mode, also write the raw Chrome trace to this file (re-analyzable via -file)")
	c.FS.IntVar(&c.TopN, "top", 5, "show the N slowest jobs")
	c.FS.BoolVar(&c.JSON, "json", false, "emit the machine-readable JSON report instead of text")
	c.FS.StringVar(&c.Out, "o", "", "write the report to this file instead of stdout")
	file := c.FS.String("file", "", "analyze this exported Chrome trace instead of running a scenario")
	if !c.Parse(args) {
		return 2
	}

	var tr *analyze.Trace
	var out *scengen.FleetOutcome
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err == nil {
			tr, err = analyze.ReadTrace(bytes.NewReader(b))
		}
		if err != nil {
			return c.Fail(1, err)
		}
	} else {
		c.Report = true // the report is this command's output
		var err error
		if out, err = c.Run(c.Arm(c.Fleet())); err != nil {
			return c.Fail(1, err)
		}
		if err := out.Err(); err != nil {
			return c.Fail(1, fmt.Errorf("INVARIANT VIOLATIONS: %w", err))
		}
	}
	return c.Analyze(tr, out)
}
