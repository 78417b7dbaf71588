// Package fleetcli is the shared front end of the fleet scenario
// commands fleetsim, chaossim and tracectl: the scenario flags, the
// fleet-shape overrides, the observed run with its trace and metrics
// exports, and the invariant, analysis and SLO report. Each command keeps
// only its own flags and its own output table.
//
// Exit codes, shared by all three: 0 success, 1 run, I/O or invariant
// failure, 2 bad flags, 3 SLO violated.
package fleetcli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
)

// CLI is one invocation of a scenario front end. The scenario fields are
// flag targets; a field whose flag the command does not offer keeps its
// zero value, which means "no override".
type CLI struct {
	FS             *flag.FlagSet
	Stdout, Stderr io.Writer

	Seed, FaultSeed                        int64
	Pod                                    bool
	Policy                                 string
	Hosts, GPUs, Pods, ChassisPerPod, Jobs int
	Oversub                                float64

	Fingerprint, Report bool
	Trace, Metrics      string // export paths; empty = no export
	MetricsIntervalMS   int
	SLOSpec             string
	// The analysis report: the TopN slowest jobs, as JSON or text, to the
	// file Out or to Stdout.
	TopN int
	JSON bool
	Out  string

	slo analyze.SLO
	col *obs.Collector
}

// New returns a CLI whose flag set is named after the command and
// reports to stderr.
func New(name string, stdout, stderr io.Writer) *CLI {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &CLI{FS: fs, Stdout: stdout, Stderr: stderr, TopN: 5}
}

// ScenarioFlags registers the flags fleetsim and chaossim share. The two
// read -fault-seed 0 differently, so each command documents it.
func (c *CLI) ScenarioFlags(faultSeedUsage string) {
	fs := c.FS
	fs.Int64Var(&c.Seed, "seed", 1, "scenario seed (job stream, fleet shape, policy)")
	fs.Int64Var(&c.FaultSeed, "fault-seed", 0, faultSeedUsage)
	fs.StringVar(&c.Policy, "policy", "", "override the placement policy (see fleetsim -list-policies)")
	fs.IntVar(&c.Hosts, "hosts", 0, "override the host count (1-3)")
	fs.IntVar(&c.GPUs, "gpus", 0, "override the chassis GPU inventory (2-16)")
	fs.BoolVar(&c.Pod, "pod", false, "draw a pod-shaped (multi-chassis spine/leaf) scenario from the seed")
	fs.IntVar(&c.Pods, "pods", 0, "override the pod count (selects the pod shape, 1-4)")
	fs.IntVar(&c.ChassisPerPod, "chassis-per-pod", 0, "override the chassis per pod (selects the pod shape, 1-3)")
	fs.Float64Var(&c.Oversub, "oversub", 0, "override the spine oversubscription ratio (pod shape, 1-16)")
	fs.BoolVar(&c.Fingerprint, "fingerprint", false, "print the canonical telemetry fingerprint after the report")
	fs.StringVar(&c.Trace, "trace", "", "write a Chrome trace_event JSON of the run to this file (load in Perfetto)")
	fs.StringVar(&c.Metrics, "metrics", "", "write the sampled metrics series as CSV to this file")
	fs.IntVar(&c.MetricsIntervalMS, "metrics-interval", 0, "metrics sampling interval in sim-time ms (default 100)")
	fs.BoolVar(&c.Report, "report", false, "print the trace-analytics report (attribution, percentiles) after the run")
	fs.StringVar(&c.SLOSpec, "slo", "", `evaluate this SLO against the run and exit 3 on violation, e.g. "p99-wait<=1m max-failed<=0"`)
}

// Parse parses args, the SLO spec and the policy name. False means a bad
// flag, already reported: exit 2.
func (c *CLI) Parse(args []string) bool {
	if err := c.FS.Parse(args); err != nil {
		return false
	}
	var err error
	if c.slo, err = analyze.ParseSLO(c.SLOSpec); err == nil && c.Policy != "" {
		_, err = orchestrator.PolicyByName(c.Policy)
	}
	if err != nil {
		c.Fail(2, err)
		return false
	}
	return true
}

// Fail reports err under the command's name and returns code.
func (c *CLI) Fail(code int, err error) int {
	fmt.Fprintln(c.Stderr, c.FS.Name()+":", err)
	return code
}

// Fleet draws the seed's fleet scenario, pod-shaped under -pod, and
// applies the overrides. -pods alone implies one chassis per pod and
// -chassis-per-pod alone one pod. The result is not sanitized.
func (c *CLI) Fleet() scengen.FleetScenario {
	sc := scengen.FleetFromSeed(c.Seed)
	if c.Pod {
		sc = scengen.PodFleetFromSeed(c.Seed)
	}
	if c.Policy != "" {
		sc.Policy = c.Policy
	}
	if c.Hosts != 0 {
		sc.Hosts = c.Hosts
	}
	if c.GPUs != 0 {
		sc.GPUs = c.GPUs
	}
	if c.Pods != 0 {
		sc.Pods = c.Pods
		if sc.ChassisPerPod == 0 {
			sc.ChassisPerPod = 1
		}
	}
	if c.ChassisPerPod != 0 {
		sc.ChassisPerPod = c.ChassisPerPod
		if sc.Pods == 0 {
			sc.Pods = 1
		}
	}
	if c.Oversub != 0 {
		sc.Oversubscription = c.Oversub
	}
	if c.Jobs > 0 && c.Jobs < len(sc.Jobs) {
		sc.Jobs = sc.Jobs[:c.Jobs]
	}
	return sc
}

// Arm sanitizes fleet and arms the -fault-seed schedule on it, in
// fleetsim's and tracectl's sense: fault seed 0 runs fault-free.
func (c *CLI) Arm(fleet scengen.FleetScenario) scengen.FaultScenario {
	sc := scengen.FaultScenario{Fleet: scengen.SanitizeFleet(fleet)}
	if c.FaultSeed != 0 {
		sc.Plan = scengen.PlanForFleet(c.FaultSeed, sc.Fleet)
	}
	return scengen.SanitizeFaults(sc)
}

// FaultScenario is chaossim's scenario: the seed's fault scenario with
// the overrides applied to its fleet and the retry budget set, sanitized.
// Fault seed 0 keeps the plan drawn from -seed, except that a pod-shaped
// fleet re-draws it against the pod bounds, where the degenerate draw
// knows nothing about pods or spine links.
func (c *CLI) FaultScenario(maxRetries int) scengen.FaultScenario {
	sc := scengen.FaultsFromSeed(c.Seed)
	sc.Fleet, sc.MaxRetries = c.Fleet(), maxRetries
	switch {
	case c.FaultSeed != 0:
		sc.Plan = scengen.PlanForFleet(c.FaultSeed, sc.Fleet)
	case sc.Fleet.Pods != 0 || sc.Fleet.ChassisPerPod != 0:
		sc.Plan = scengen.PlanForFleet(c.Seed, sc.Fleet)
	}
	return scengen.SanitizeFaults(sc)
}

// Run executes sc with a collector attached when an export, the report
// or an SLO needs one, and writes the -trace and -metrics exports. An
// empty fault plan is a fault-free run.
func (c *CLI) Run(sc scengen.FaultScenario) (*scengen.FleetOutcome, error) {
	if c.Trace != "" || c.Metrics != "" || c.Report || !c.slo.Empty() {
		c.col = obs.NewCollector()
		c.col.SetInterval(time.Duration(c.MetricsIntervalMS) * time.Millisecond)
	}
	out, err := scengen.RunFaultyFleetObserved(sc, c.col)
	if err == nil && c.Trace != "" {
		err = writeFile(c.Trace, c.col.WriteTrace)
	}
	if err == nil && c.Metrics != "" {
		err = writeFile(c.Metrics, c.col.WriteMetricsCSV)
	}
	return out, err
}

// Finish ends a run after the command's own table: the invariant verdict
// (held names what was checked), the obs summary, the analysis report
// under -report or -slo, and the fingerprint. It returns the exit code.
func (c *CLI) Finish(out *scengen.FleetOutcome, held string) int {
	if err := out.Err(); err != nil {
		return c.Fail(1, fmt.Errorf("INVARIANT VIOLATIONS: %w", err))
	}
	fmt.Fprintf(c.Stdout, "  invariants: all held (%s)\n", held)
	if c.col != nil {
		fmt.Fprintf(c.Stdout, "\n%s", c.col.Summary())
	}
	code := 0
	if c.Report || !c.slo.Empty() {
		fmt.Fprintln(c.Stdout)
		if code = c.Analyze(nil, out); code == 1 {
			return code
		}
	}
	if c.Fingerprint {
		fmt.Fprintf(c.Stdout, "\n--- fingerprint\n%s", out.Fingerprint)
	}
	return code
}

// Analyze attributes a trace, scores the SLO against it and writes the
// report to the -o path, or to stdout. The trace is the run's when out is
// set, else tr, a bare trace without run-level stats, whose SLO clauses
// on them report skipped. It returns the exit code.
func (c *CLI) Analyze(tr *analyze.Trace, out *scengen.FleetOutcome) int {
	var stats *analyze.FleetStats
	var st analyze.FleetStats
	if out != nil {
		tr, st = analyze.FromCollector(c.col), out.Stats()
		stats = &st
	}
	a := tr.Analyze()
	var health *analyze.HealthReport
	if !c.slo.Empty() {
		health = analyze.Evaluate(c.slo, a, st)
	}
	write := func(w io.Writer) error {
		if !c.JSON {
			return analyze.WriteText(w, a, stats, health, c.TopN)
		}
		b, err := analyze.JSONReport(a, stats, health, c.TopN)
		if err == nil {
			_, err = w.Write(b)
		}
		return err
	}
	var err error
	if c.Out != "" {
		err = writeFile(c.Out, write)
	} else {
		err = write(c.Stdout)
	}
	if err != nil {
		return c.Fail(1, err)
	}
	if health != nil && !health.Healthy {
		return 3
	}
	return 0
}

// writeFile creates path and streams write into it, reporting a failed
// Close as well as a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
