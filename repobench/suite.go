package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/collective"
	"composable/internal/dlmodel"
	"composable/internal/experiments"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// suiteIDs are the paper experiments of one paper-suite op, in paper
// order: the tables, the figures, the ablations and the two extensions.
var suiteIDs = []string{
	"T1", "T2", "T3", "T4",
	"F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
	"A1", "A2", "A3", "A4", "X1", "X2",
}

// paperSuite runs the paper experiments on a fresh standard-scale
// Session, sequentially. Its inputs are fixed; the seed is unused.
type paperSuite struct{}

func newPaperSuite(config) workload { return &paperSuite{} }

func (w *paperSuite) setup() error { return nil }

func (w *paperSuite) inputs() int       { return 1 }
func (w *paperSuite) epoch() int        { return 1 }
func (w *paperSuite) prepare(int) error { return nil }
func (w *paperSuite) close()            {}

// suiteTables is how many of suiteIDs are the paper's tables. They
// describe the testbed the figures' runs are submitted to (software
// stack, benchmarks, host configurations, measured GPU-GPU links), so
// running them is the submit phase; the figures, ablations and
// extensions are the drain phase.
const suiteTables = 4

// suiteRun is one executed suite.
type suiteRun struct {
	session *experiments.Session
	reports []experiments.Report
	stats   experiments.Stats
}

// runSuite resolves the experiment IDs, as benchrunner's -exp does, and
// runs them in order on a fresh session with one worker: the tables in
// the submit phase, the rest in the drain phase. Each phase ends with its
// RunAll call.
func runSuite(ph *phases, phase spanFn) (*suiteRun, error) {
	r := &suiteRun{}
	var results *experiments.Runner
	var head, tail []experiments.Report
	err := phase("experiments.RunAll.tables", &ph.submit, func() (err error) {
		exps := make([]experiments.Experiment, len(suiteIDs))
		for i, id := range suiteIDs {
			if exps[i], err = experiments.ByID(id); err != nil {
				return err
			}
		}
		r.session = experiments.NewSession(experiments.Standard)
		results = experiments.NewRunner(r.session, exps[suiteTables:])
		head, err = experiments.NewRunner(r.session, exps[:suiteTables]).RunAll(context.Background(), 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = phase("experiments.RunAll.results", &ph.drain, func() (err error) {
		tail, err = results.RunAll(context.Background(), 1)
		return err
	})
	r.reports = append(head, tail...)
	r.stats = r.session.Stats()
	return r, err
}

func (w *paperSuite) op(_ int, ph *phases) (opOut, error) {
	r, err := runSuite(ph, timedPhase)
	if err != nil {
		return opOut{}, err
	}
	var doc string
	var sample simSample
	err = timed(&ph.read, func() (err error) {
		doc = renderReports(r.reports)
		sample, err = suiteSim(r.session)
		return err
	})
	if err == nil {
		err = checkReports(r)
	}
	if err != nil {
		return opOut{}, err
	}
	out := fmt.Sprintf("%s\ntraining runs %d, cache hits %d, joins %d\n",
		doc, r.stats.TrainRuns, r.stats.CacheHits, r.stats.Joins)
	return opOut{out: []byte(out), jobs: r.stats.TrainRuns, sim: sample}, nil
}

// renderReports renders the suite the way benchrunner prints it.
func renderReports(reports []experiments.Report) string {
	var b strings.Builder
	for _, rep := range reports {
		fmt.Fprintf(&b, "== %s: %s ==\n%s\n", rep.ID, rep.Title, rep.Output)
	}
	return b.String()
}

// checkReports verifies every experiment ran and rendered.
func checkReports(r *suiteRun) error {
	if len(r.reports) != len(suiteIDs) {
		return checkf(false, "%d reports for %d experiments", len(r.reports), len(suiteIDs))
	}
	for i, rep := range r.reports {
		if rep.ID != suiteIDs[i] || rep.Err != nil || strings.TrimSpace(rep.Output) == "" {
			return checkf(false, "report %d (%s): err %v, %d output bytes", i, rep.ID, rep.Err, len(rep.Output))
		}
	}
	return checkf(r.stats.TrainRuns > 0, "no training runs")
}

// suiteSim reads the modelled outcome of the paper's core matrix — the
// Figure 10 runs, every benchmark on localGPUs, hybridGPUs and
// falconGPUs with FP16 DDP — back from the session's cache: total
// training time (makespan), per-run GPU idle time (wait: the time the
// GPUs stall on data, transfers and collectives), and busy GPU-seconds.
// Every lookup must hit the cache; a new training run here would mean
// the suite did not cover the matrix.
func suiteSim(s *experiments.Session) (simSample, error) {
	before := s.Stats().TrainRuns
	var out simSample
	for _, wl := range dlmodel.Benchmarks() {
		for _, cfg := range []cluster.Config{cluster.LocalGPUsConfig(), cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig()} {
			res, err := s.RunOpts(cfg, wl, train.Options{Precision: gpu.FP16, Strategy: train.DDP})
			if err != nil {
				return simSample{}, err
			}
			gpus := float64(cfg.LocalGPUs + cfg.FalconGPUs)
			out.makespan += res.TotalTime
			out.waits = append(out.waits, time.Duration((1-res.AvgGPUUtil)*float64(res.TotalTime)))
			out.busy += res.AvgGPUUtil * gpus * res.TotalTime.Seconds()
		}
	}
	return out, checkf(s.Stats().TrainRuns == before, "the Figure 10 matrix was not in the session cache")
}

// allReduceBytes is the collective probe's payload: ResNet-50's FP32
// gradients (25.6 M parameters).
const allReduceBytes = 100 * units.MB

// allReduceProbe runs one ExecAllReduce on a freshly composed
// falconGPUs system and returns its simulated duration. The host time is
// the "collective.ExecAllReduce" span.
func allReduceProbe(t *tracer) (time.Duration, error) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.FalconGPUsConfig())
	if err != nil {
		return 0, err
	}
	comm, err := collective.New(sys.Net, sys.GPUs)
	if err != nil {
		return 0, err
	}
	var simDur time.Duration
	env.Go("allreduce-probe", func(p *sim.Proc) {
		t0 := p.Now()
		comm.ExecAllReduce(p, allReduceBytes)
		simDur = p.Now() - t0
	})
	_, err = t.span("collective.ExecAllReduce", env.Run)
	return simDur, err
}

// trainProbe runs one standard-scale training run of the suite's core
// matrix (falconGPUs × ResNet-50, FP16 DDP), traced when col is set. The
// Session has no observability hook, so the suite's sim, fabric and
// train counts come from this run: the unit of work the suite repeats.
func trainProbe(t *tracer, col *obs.Collector) (*train.Result, int, error) {
	env := sim.NewEnv()
	if col != nil {
		col.Attach(env)
	}
	sys, err := spanned(t, "cluster.Compose", func() (*cluster.System, error) {
		return cluster.Compose(env, cluster.FalconGPUsConfig())
	})
	if err != nil {
		return nil, 0, err
	}
	if col != nil {
		sys.Net.SetObs(col)
	}
	wl, err := dlmodel.BenchmarkByName("ResNet-50")
	if err != nil {
		return nil, 0, err
	}
	scale := experiments.Standard
	epochs := wl.Epochs
	if epochs > scale.MaxEpochs {
		epochs = scale.MaxEpochs
	}
	name := "train.Run"
	if col != nil {
		name = "train.Run.traced"
	}
	res, err := spanned(t, name, func() (*train.Result, error) {
		return train.Run(sys, train.Options{
			Workload: wl, Precision: gpu.FP16, Strategy: train.DDP,
			ItersPerEpoch: scale.ItersPerEpoch, Epochs: epochs, SampleInterval: scale.SampleInterval,
			Obs: col,
		})
	})
	return res, len(sys.Net.Links()), err
}

func (w *paperSuite) layers(t *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	var ref string
	var allreduceSim []float64
	for first := true; first || t.more(); first = false {
		t.nextOp()
		var ph phases
		var runAlls []int // span indexes of the two RunAll phases
		r, err := runSuite(&ph, func(name string, into *[]time.Duration, fn func() error) error {
			runAlls = append(runAlls, len(t.spans))
			_, err := t.span(name, func() error { return timed(into, fn) })
			return err
		})
		if err != nil {
			return nil, err
		}
		doc := renderReports(r.reports)
		if ref == "" {
			ref = doc
		}
		t.check(errors.Join(checkReports(r), checkf(doc == ref, "reports changed")))
		// The runner times each experiment itself (Report.Elapsed); on one
		// worker they run back to back at the end of their phase's span.
		layout := func(parent int, reps []experiments.Report) {
			at := t.spans[parent].End
			for _, rep := range reps {
				at -= int64(rep.Elapsed)
			}
			for _, rep := range reps {
				t.spans = append(t.spans, hostSpan{
					Name: "experiments." + rep.ID, Start: at, End: at + int64(rep.Elapsed),
					Parent: parent, Op: t.op,
				})
				at += int64(rep.Elapsed)
			}
		}
		layout(runAlls[0], r.reports[:suiteTables])
		layout(runAlls[1], r.reports[suiteTables:])
		if first {
			vals["train.runs"] = float64(r.stats.TrainRuns)
			vals["train.cache_hits"] = float64(r.stats.CacheHits)
		}

		d, err := allReduceProbe(t)
		if err != nil {
			return nil, err
		}
		allreduceSim = append(allreduceSim, float64(d)/float64(time.Millisecond))

		plain, _, err := trainProbe(t, nil)
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector()
		traced, links, err := trainProbe(t, col)
		if err != nil {
			return nil, err
		}
		t.check(checkf(traced.TotalTime == plain.TotalTime && traced.AvgGPUUtil == plain.AvgGPUUtil,
			"tracing changed the training run"))
		traceBytes, err := exportAndAnalyze(t, col)
		if err != nil {
			return nil, err
		}
		if first {
			probe := obsLayers(col)
			delete(probe, "train.runs") // the suite's count comes from its Session
			addLayers(vals, probe)
			vals["fabric.links"] = float64(links)
			vals["obs.trace_bytes"] = traceBytes
		}
	}
	for _, id := range suiteIDs {
		vals["experiments."+id+"_s"] = t.median("experiments." + id)
	}
	vals["collective.allreduce_host_us"] = 1e6 * t.median("collective.ExecAllReduce")
	vals["collective.allreduce_sim_ms"] = median(allreduceSim)
	vals["cluster.compose_s"] = t.median("cluster.Compose")
	vals["sim.events_per_s"] = vals["sim.events"] / t.median("train.Run")
	vals["obs.overhead_frac"] = t.median("train.Run.traced")/t.median("train.Run") - 1
	vals["obs.export_s"] = t.median("obs.WriteTrace")
	vals["analyze.s"] = t.median("analyze.Analyze")
	return vals, nil
}
