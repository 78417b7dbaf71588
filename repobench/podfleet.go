package main

import (
	"errors"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/perfbench"
	"composable/internal/sim"
)

// podFleet is the ROADMAP's pod-schedule op: compose the 1024-GPU pod
// fleet and run the fixed 500-job stream under the drawer-local policy,
// with no probes attached. Its inputs are fixed; the seed is unused.
type podFleet struct {
	stream []orchestrator.JobSpec
}

func newPodFleet(config) workload { return &podFleet{} }

func (w *podFleet) setup() error {
	w.stream = perfbench.PodBenchStream()
	return nil
}

func (w *podFleet) inputs() int       { return 1 }
func (w *podFleet) epoch() int        { return 1 }
func (w *podFleet) prepare(int) error { return nil }
func (w *podFleet) close()            {}

// compose builds a fresh pod fleet, optionally traced.
func (w *podFleet) compose(col *obs.Collector) (*cluster.FleetSystem, error) {
	env := sim.NewEnv()
	if col != nil {
		col.Attach(env)
	}
	f, err := cluster.ComposeFleet(env, perfbench.PodFleetOptions())
	if err == nil && col != nil {
		f.AttachObs(col)
	}
	return f, err
}

// schedule runs the stream on a composed fleet.
func (w *podFleet) schedule(f *cluster.FleetSystem, col *obs.Collector) (*orchestrator.FleetResult, error) {
	return orchestrator.Run(f, w.stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}, Obs: col})
}

func (w *podFleet) op(_ int, ph *phases) (opOut, error) {
	var f *cluster.FleetSystem
	var res *orchestrator.FleetResult
	var out []byte
	err := timed(&ph.submit, func() (err error) {
		f, err = w.compose(nil)
		return err
	})
	if err == nil {
		err = timed(&ph.drain, func() (err error) {
			res, err = w.schedule(f, nil)
			return err
		})
	}
	if err == nil {
		_ = timed(&ph.read, func() error {
			out = []byte(res.Fingerprint() + res.Summary())
			return nil
		})
		err = checkFleet(res, len(w.stream), false)
	}
	if err != nil {
		return opOut{}, err
	}
	return opOut{out: out, jobs: len(res.Jobs), sim: fleetSim(res)}, nil
}

// checkFleet verifies every job of the stream is accounted for: one
// result per job, in ID order, each finished after it launched or, when
// failures are allowed, abandoned with a cause.
func checkFleet(res *orchestrator.FleetResult, jobs int, allowFailed bool) error {
	if len(res.Jobs) != jobs {
		return checkf(false, "%d job results for %d jobs", len(res.Jobs), jobs)
	}
	failed := 0
	for i, j := range res.Jobs {
		if j.ID != i {
			return checkf(false, "job %d reported as id %d", i, j.ID)
		}
		if j.Failed {
			failed++
			if !allowFailed || j.FailureCause == "" {
				return checkf(false, "job %d failed (%q)", i, j.FailureCause)
			}
			continue
		}
		if j.Finished < j.Launched || j.Launched < j.Arrival || j.Finished > res.Makespan {
			return checkf(false, "job %d timeline arrival %v launch %v finish %v makespan %v",
				i, j.Arrival, j.Launched, j.Finished, res.Makespan)
		}
	}
	return checkf(failed == res.FailedJobs, "%d failed jobs, result says %d", failed, res.FailedJobs)
}

// fleetSim extracts the modelled-design sample of one fleet run.
func fleetSim(res *orchestrator.FleetResult) simSample {
	s := simSample{makespan: res.Makespan, busy: res.Goodput * res.Makespan.Seconds()}
	for _, j := range res.Jobs {
		if !j.Failed {
			s.waits = append(s.waits, j.Wait)
		}
	}
	return s
}

// routePairs is the route probe's fixed src/dst set: GPU slots spread
// over the whole fleet, each paired with a host root complex in another
// pod, so every route crosses the spine.
func routePairs(f *cluster.FleetSystem) [][2]fabric.NodeID {
	const n = 64
	pairs := make([][2]fabric.NodeID, 0, n)
	for i := 0; i < n; i++ {
		slot := f.Slots[(i*len(f.Slots))/n]
		host := f.Hosts[((i*len(f.Hosts))/n+len(f.Hosts)/2)%len(f.Hosts)]
		pairs = append(pairs, [2]fabric.NodeID{slot.Node, host.RC})
	}
	return pairs
}

// routeProbe times fabric.Network.Route over routePairs on a freshly
// composed fleet: the first lookup of each pair (cold, a shortest-path
// search) and then repeated lookups (warm, the route cache).
func (w *podFleet) routeProbe(t *tracer) (coldUS, warmNS float64, err error) {
	f, err := w.compose(nil)
	if err != nil {
		return 0, 0, err
	}
	pairs := routePairs(f)
	var colds []float64
	for _, p := range pairs {
		d, err := t.span("fabric.Route.cold", func() error {
			_, err := f.Net.Route(p[0], p[1])
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		colds = append(colds, float64(d)/float64(time.Microsecond))
	}
	const rounds = 2000
	d, err := t.span("fabric.Route.warm", func() error {
		for r := 0; r < rounds; r++ {
			for _, p := range pairs {
				if _, err := f.Net.Route(p[0], p[1]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return median(colds), float64(d) / float64(rounds*len(pairs)), err
}

func (w *podFleet) layers(t *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	var coldUS, warmNS []float64
	var traced, plain []float64
	var counts map[string]float64
	var ref string
	for first := true; first || t.more(); first = false {
		t.nextOp()
		c, wn, err := w.routeProbe(t)
		if err != nil {
			return nil, err
		}
		coldUS, warmNS = append(coldUS, c), append(warmNS, wn)

		// One untraced and one traced op, alternating.
		var res *orchestrator.FleetResult
		d, err := t.span("op", func() error {
			f, err := spanned(t, "cluster.ComposeFleet", func() (*cluster.FleetSystem, error) { return w.compose(nil) })
			if err != nil {
				return err
			}
			res, err = spanned(t, "orchestrator.Run", func() (*orchestrator.FleetResult, error) { return w.schedule(f, nil) })
			return err
		})
		if err != nil {
			return nil, err
		}
		plain = append(plain, d.Seconds())
		fp := res.Fingerprint()
		if ref == "" {
			ref = fp
		}
		t.check(errors.Join(checkFleet(res, len(w.stream), false), checkf(fp == ref, "fingerprint changed")))

		col := obs.NewCollector()
		var f *cluster.FleetSystem
		d, err = t.span("op.traced", func() (err error) {
			if f, err = w.compose(col); err != nil {
				return err
			}
			res, err = w.schedule(f, col)
			return err
		})
		if err != nil {
			return nil, err
		}
		traced = append(traced, d.Seconds())
		t.check(checkf(res.Fingerprint() == ref, "tracing changed the fingerprint"))
		traceBytes, err := exportAndAnalyze(t, col)
		if err != nil {
			return nil, err
		}
		if counts == nil {
			counts = obsLayers(col)
			counts["obs.trace_bytes"] = traceBytes
			counts["fabric.links"] = float64(len(f.Net.Links()))
		}
	}
	for k, v := range counts {
		vals[k] = v
	}
	vals["fabric.route_cold_us"] = median(coldUS)
	vals["fabric.route_warm_ns"] = median(warmNS)
	vals["cluster.compose_s"] = t.median("cluster.ComposeFleet")
	vals["orchestrator.run_s"] = t.median("orchestrator.Run")
	vals["sim.events_per_s"] = vals["sim.events"] / median(plain)
	vals["obs.overhead_frac"] = median(traced)/median(plain) - 1
	vals["obs.export_s"] = t.median("obs.WriteTrace")
	vals["analyze.s"] = t.median("analyze.Analyze")
	return vals, nil
}
