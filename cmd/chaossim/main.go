// Command chaossim drives the fleet orchestrator through seeded fault
// scenarios: the fleetsim experience with the failure engine armed. It
// generates a fleet scenario and a fault schedule from seeds, runs the
// stream with checkpoint/restart recovery and GPU blacklisting, and
// prints the fault plan, the per-job recovery telemetry, the fault
// timeline, and the fleet summary. Every run executes under the full
// fault-aware invariant probe set and fails loudly on any violation.
//
// Usage:
//
//	chaossim -seed 1                      # seeded fleet + seeded faults
//	chaossim -seed 1 -fault-seed 9        # same fleet, different failures
//	chaossim -seed 1 -policy static       # recovery under a fixed partition
//	chaossim -seed 1 -retries 1           # tighter retry budget
//	chaossim -seed 1 -pod                 # pod-shaped fleet, pod/spine faults in play
//	chaossim -seed 1 -fingerprint         # canonical fingerprint (faults included)
//	chaossim -seed 1 -report              # trace-analytics report (attribution, percentiles)
//	chaossim -seed 1 -slo "p99-wait<=1m max-failed<=0"   # exit 3 on violation
//
// The simulation is deterministic: the same flags always print the same
// report, byte for byte — the chaossim-smoke CI job diffs two runs.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"composable/internal/fleetcli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: parse flags, build the scenario, run it, and
// return the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := fleetcli.New("chaossim", stdout, stderr)
	c.ScenarioFlags("fault schedule seed (0 = derive from -seed)")
	retries := c.FS.Int("retries", 0, "per-job retry budget (0 = default, negative = none)")
	if !c.Parse(args) {
		return 2
	}

	sc := c.FaultScenario(*retries)

	fmt.Fprintf(stdout, "chaossim scenario %s (seed %d)\n\nfault plan:\n", sc.ID(), c.Seed)
	if len(sc.Plan.Events) == 0 {
		fmt.Fprintf(stdout, "  (empty — fault-free run)\n")
	}
	for _, e := range sc.Plan.Events {
		fmt.Fprintf(stdout, "  %v\n", e)
	}
	out, err := c.Run(sc)
	if err != nil {
		return c.Fail(1, err)
	}
	res := out.Result

	fmt.Fprintf(stdout, "\n%4s %-12s %3s %5s %8s %6s %10s %10s  %s\n",
		"job", "workload", "g", "host", "retries", "ckpt", "lost", "finish", "state")
	for _, j := range res.Jobs {
		state := "done"
		if j.Failed {
			state = "FAILED: " + j.FailureCause
		} else if j.Retries > 0 {
			state = "recovered: " + j.FailureCause
		}
		fmt.Fprintf(stdout, "%4d %-12s %3d %5d %8d %4dep %8.1fGs %10v  %s\n",
			j.ID, j.Workload, j.GPUs, j.Host+1, j.Retries, j.EpochsDone,
			j.LostGPUSeconds, j.Finished.Round(time.Millisecond), state)
	}
	fmt.Fprintf(stdout, "\n%s", res.Summary())
	if res.Track != nil && res.Track.Len() > 0 && res.Makespan > 0 {
		fmt.Fprintf(stdout, "  fault timeline [0, %v]: %s\n",
			res.Makespan.Round(time.Millisecond), res.Track.Timeline(48, res.Makespan))
	}
	return c.Finish(out, fmt.Sprintf("%d jobs, %d faults; lifecycle+assignment+conservation+lost-work",
		len(res.Jobs), res.Faults))
}
