package main

import (
	"errors"
	"fmt"
	"strings"

	"composable/internal/cluster"
	"composable/internal/invariant"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// chaosScenarios is the number of consecutive scenario seeds a
// fleet-chaos run covers. The scenarios differ widely in size, so the
// more a run covers, the less its medians and sums depend on the seed;
// but a run covers each once, and this many already take about 40 s when
// a neighbour's load halves the host's speed.
const chaosScenarios = 1024

// chaosTraced is how many of them one pass of the traced run covers; the
// per-layer counts are summed over these.
const chaosTraced = 128

// fleetChaos runs `chaossim -pod` scenarios through scengen.RunFaultyFleet
// with the full invariant set: PodFleetFromSeed(s) plus PlanForFleet(s),
// sanitized, for chaosScenarios consecutive seeds s derived from the
// benchmark seed. One op is one scenario.
type fleetChaos struct {
	seed int64
	raw  []scengen.FaultScenario
}

func newFleetChaos(cfg config) workload { return &fleetChaos{seed: cfg.Seed} }

// scenarioSeed is the chaossim seed of scenario k.
func (w *fleetChaos) scenarioSeed(k int) int64 { return w.seed*chaosScenarios + int64(k) + 1 }

func (w *fleetChaos) setup() error {
	w.raw = make([]scengen.FaultScenario, chaosScenarios)
	for k := range w.raw {
		s := w.scenarioSeed(k)
		fleet := scengen.PodFleetFromSeed(s)
		w.raw[k] = scengen.FaultScenario{Fleet: fleet, Plan: scengen.PlanForFleet(s, fleet)}
	}
	return nil
}

func (w *fleetChaos) inputs() int       { return len(w.raw) }
func (w *fleetChaos) epoch() int        { return 1 }
func (w *fleetChaos) prepare(int) error { return nil }
func (w *fleetChaos) close()            {}

func (w *fleetChaos) op(k int, ph *phases) (opOut, error) {
	var sc scengen.FaultScenario
	var out *scengen.FleetOutcome
	var report string
	_ = timed(&ph.submit, func() error {
		sc = scengen.SanitizeFaults(w.raw[k])
		return nil
	})
	err := timed(&ph.drain, func() (err error) {
		out, err = scengen.RunFaultyFleet(sc)
		return err
	})
	if err != nil {
		return opOut{}, err
	}
	_ = timed(&ph.read, func() error {
		report = chaosReport(out)
		return nil
	})
	if err := w.checkOutcome(k, sc, out.Result, out.Inv); err != nil {
		return opOut{}, err
	}
	completed := len(out.Result.Jobs) - out.Result.FailedJobs
	return opOut{out: []byte(out.Fingerprint + report), jobs: completed, sim: fleetSim(out.Result)}, nil
}

// checkOutcome verifies one scenario run: every invariant held and
// every job is accounted for.
func (w *fleetChaos) checkOutcome(k int, sc scengen.FaultScenario, res *orchestrator.FleetResult, inv *invariant.Set) error {
	if err := inv.Err(); err != nil {
		return fmt.Errorf("%w: scenario seed %d: %v", errCheck, w.scenarioSeed(k), err)
	}
	return checkFleet(res, len(sc.Fleet.Jobs), true)
}

// chaosReport renders what chaossim prints after a run: the per-job
// recovery table, the fleet summary and the fault timeline.
func chaosReport(out *scengen.FleetOutcome) string {
	res := out.Result
	var b strings.Builder
	for _, j := range res.Jobs {
		fmt.Fprintf(&b, "%4d %-12s %3d %5d %8d %4dep %8.1fGs %10v %t %s\n",
			j.ID, j.Workload, j.GPUs, j.Host+1, j.Retries, j.EpochsDone,
			j.LostGPUSeconds, j.Finished, j.Failed, j.FailureCause)
	}
	b.WriteString(res.Summary())
	if res.Track != nil && res.Track.Len() > 0 && res.Makespan > 0 {
		b.WriteString(res.Track.Timeline(48, res.Makespan))
	}
	return b.String()
}

// replica runs a sanitized scenario exactly as scengen.RunFaultyFleet
// does, from the same public calls, but with each layer in its own span
// and with the fabric auditor (invariant.WatchNetwork) optional. It also
// returns the fabric's link count. The traced run compares its
// fingerprint with RunFaultyFleet's, so the two cannot drift apart
// unnoticed.
func replica(t *tracer, sc scengen.FaultScenario, watchNetwork bool) (*orchestrator.FleetResult, *invariant.Set, int, error) {
	suffix := ""
	if !watchNetwork {
		suffix = ".nowatch"
	}
	env := sim.NewEnv()
	f, err := spanned(t, "cluster.ComposeFleet", func() (*cluster.FleetSystem, error) {
		return cluster.ComposeFleet(env, cluster.FleetOptions{
			Hosts: sc.Fleet.Hosts, GPUs: sc.Fleet.GPUs, Preattach: sc.Fleet.Preattach,
			Pods: sc.Fleet.Pods, ChassisPerPod: sc.Fleet.ChassisPerPod,
			Oversubscription: sc.Fleet.Oversubscription,
		})
	})
	if err != nil {
		return nil, nil, 0, err
	}
	pol, err := orchestrator.PolicyByName(sc.Fleet.Policy)
	if err != nil {
		return nil, nil, 0, err
	}
	inv := invariant.New()
	inv.WatchEnv(env)
	if watchNetwork {
		inv.WatchNetwork(f.Net)
	}
	inv.WatchFleet(f)
	plan := sc.Plan
	res, err := spanned(t, "orchestrator.Run"+suffix, func() (*orchestrator.FleetResult, error) {
		return orchestrator.Run(f, sc.Fleet.Jobs, orchestrator.Options{
			Policy:        pol,
			AttachLatency: sc.Fleet.AttachLatency,
			Probe:         inv.OrchestratorProbe(),
			Faults:        &plan,
			MaxRetries:    sc.MaxRetries,
		})
	})
	if err != nil {
		return nil, nil, 0, err
	}
	_, _ = t.span("invariant.CheckFleetResult"+suffix, func() error {
		inv.CheckFleetResult(f, res)
		return nil
	})
	return res, inv, len(f.Net.Links()), nil
}

// layers runs repeated passes over the first chaosTraced scenarios. Each
// scenario runs three ways, back to back: traced (RunFaultyFleetObserved
// with a collector), with the full invariant set (replica), and with
// every check except WatchNetwork. The difference of the last two is the
// auditor's host time, invariant.audit_s.
func (w *fleetChaos) layers(t *tracer) (map[string]float64, error) {
	var counts map[string]float64
	var auditS, auditFrac, tracedS, fullS []float64
	ref := make([]string, chaosTraced)
	for first := true; first || t.more(); first = false {
		passCounts := map[string]float64{}
		var traced, full, nowatch float64
		for k := 0; k < chaosTraced; k++ {
			t.nextOp()
			sc := scengen.SanitizeFaults(w.raw[k])

			col := obs.NewCollector()
			var out *scengen.FleetOutcome
			d, err := t.span("op.traced", func() (err error) {
				out, err = scengen.RunFaultyFleetObserved(sc, col)
				return err
			})
			if err != nil {
				return nil, err
			}
			traced += d.Seconds()
			if ref[k] == "" {
				ref[k] = out.Fingerprint
			}
			t.check(errors.Join(
				w.checkOutcome(k, sc, out.Result, out.Inv),
				checkf(out.Fingerprint == ref[k], "scenario seed %d: fingerprint changed", w.scenarioSeed(k)),
			))
			if counts == nil {
				addLayers(passCounts, obsLayers(col))
				traceBytes, err := exportAndAnalyze(t, col)
				if err != nil {
					return nil, err
				}
				passCounts["obs.trace_bytes"] += traceBytes
			}

			for _, watch := range []bool{true, false} {
				name := "op.full"
				if !watch {
					name = "op.nowatch"
				}
				var res *orchestrator.FleetResult
				var inv *invariant.Set
				var links int
				d, err := t.span(name, func() (err error) {
					res, inv, links, err = replica(t, sc, watch)
					return err
				})
				if err != nil {
					return nil, err
				}
				if watch {
					full += d.Seconds()
					if counts == nil {
						passCounts["fabric.links"] += float64(links)
					}
				} else {
					nowatch += d.Seconds()
				}
				t.check(errors.Join(
					w.checkOutcome(k, sc, res, inv),
					checkf(res.Fingerprint() == ref[k], "scenario seed %d: %s replica fingerprint differs from RunFaultyFleet", w.scenarioSeed(k), name),
				))
			}
		}
		if counts == nil {
			counts = passCounts
		}
		auditS = append(auditS, (full-nowatch)/chaosTraced)
		auditFrac = append(auditFrac, (full-nowatch)/full)
		tracedS = append(tracedS, traced)
		fullS = append(fullS, full)
	}
	vals := counts
	// The auditor runs once after every allocation recompute.
	vals["invariant.audits"] = vals["fabric.recomputes"]
	vals["invariant.audit_s"] = median(auditS)
	vals["invariant.audit_frac"] = median(auditFrac)
	vals["invariant.check_s"] = t.median("invariant.CheckFleetResult")
	vals["cluster.compose_s"] = t.median("cluster.ComposeFleet")
	vals["orchestrator.run_s"] = t.median("orchestrator.Run")
	vals["sim.events_per_s"] = vals["sim.events"] / median(fullS)
	vals["obs.overhead_frac"] = median(tracedS)/median(fullS) - 1
	vals["obs.export_s"] = t.median("obs.WriteTrace")
	vals["analyze.s"] = t.median("analyze.Analyze")
	return vals, nil
}
