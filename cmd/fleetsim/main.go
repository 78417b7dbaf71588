// Command fleetsim drives the fleet orchestrator: it generates a seeded
// job stream, schedules it onto a multi-host composable testbed under a
// chosen placement policy with dynamic GPU recomposition, and prints the
// per-job and fleet telemetry. Every run executes under the full fleet
// invariant probe set and fails loudly on any violation.
//
// Usage:
//
//	fleetsim -seed 1                          # seeded random fleet scenario
//	fleetsim -seed 1 -policy firstfit         # override the policy
//	fleetsim -seed 7 -hosts 3 -gpus 12 -warm  # override the fleet shape
//	fleetsim -seed 1 -pod                     # seeded multi-pod spine/leaf fleet
//	fleetsim -seed 1 -pods 4 -chassis-per-pod 3 -oversub 8
//	fleetsim -seed 1 -fingerprint             # print the telemetry fingerprint
//	fleetsim -seed 1 -report                  # trace-analytics report (attribution, percentiles)
//	fleetsim -seed 1 -slo "p99-wait<=1m util>=0.2"   # exit 3 on violation
//	fleetsim -list-policies
//
// The simulation is deterministic: the same flags always print the same
// telemetry, byte for byte.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"composable/internal/fleetcli"
	"composable/internal/orchestrator"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: parse flags, build the scenario, run it, and
// return the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := fleetcli.New("fleetsim", stdout, stderr)
	c.ScenarioFlags("arm a seeded fault schedule (failures + recovery; 0 = fault-free). See cmd/chaossim for the full fault driver.")
	c.FS.IntVar(&c.Jobs, "jobs", 0, "trim the stream to this many jobs")
	var (
		attachMS = c.FS.Int("attach-ms", -1, "override the per-device recomposition latency in ms (0 = free)")
		warm     = c.FS.Bool("warm", false, "preattach GPUs round-robin (a warm fleet) regardless of the seed's draw")
		listPol  = c.FS.Bool("list-policies", false, "list placement policies and exit")
	)
	if !c.Parse(args) {
		return 2
	}
	if *listPol {
		for _, p := range orchestrator.Policies() {
			fmt.Fprintf(stdout, "%s\n", p.Name())
		}
		return 0
	}

	fleet := c.Fleet()
	switch {
	case *attachMS == 0:
		fleet.AttachLatency = -1 // free recomposition
	case *attachMS > 0:
		fleet.AttachLatency = time.Duration(*attachMS) * time.Millisecond
	}
	if *warm {
		fleet.Preattach = true
	}
	out, err := c.Run(c.Arm(fleet))
	if err != nil {
		return c.Fail(1, err)
	}
	res := out.Result

	fmt.Fprintf(stdout, "fleetsim scenario %s (seed %d)\n\n", out.Scenario.ID(), out.Scenario.Seed)
	fmt.Fprintf(stdout, "%4s %-12s %3s %7s %5s %6s %10s %10s %10s %10s\n",
		"job", "workload", "g", "tenant", "host", "moves", "arrival", "wait", "runtime", "finish")
	for _, j := range res.Jobs {
		fmt.Fprintf(stdout, "%4d %-12s %3d %7d %5d %6d %10v %10v %10v %10v\n",
			j.ID, j.Workload, j.GPUs, j.Tenant, j.Host+1, j.Moves,
			j.Arrival.Round(time.Millisecond), j.Wait.Round(time.Millisecond),
			j.Runtime.Round(time.Millisecond), j.Finished.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "\n%s", res.Summary())
	return c.Finish(out, fmt.Sprintf("%d jobs, lifecycle+assignment+conservation", len(res.Jobs)))
}
