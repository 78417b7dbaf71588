package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"composable/internal/microbench"
	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/units"
)

// config is what every workload is built from.
type config struct {
	Seed   int64
	Budget time.Duration
}

// workload is one benchmark workload. Op k runs input k mod inputs();
// ops on the same input must produce byte-identical outputs.
type workload interface {
	// setup generates the inputs and starts the long-lived state (server,
	// caches). It is part of setup_s.
	setup() error
	// inputs is the number of distinct inputs.
	inputs() int
	// epoch is the number of consecutive ops a timed run never stops
	// inside (mcsd-cycle: the cycles that share one server, so every run
	// sees the same job-table sizes).
	epoch() int
	// prepare runs, untimed, before op k.
	prepare(k int) error
	// op runs input k, recording its submit/drain/read phases into ph.
	op(k int, ph *phases) (opOut, error)
	// layers is the traced run: it measures the per-layer metrics.
	layers(t *tracer) (map[string]float64, error)
	// close stops everything the workload started.
	close()
}

// opOut is one op's outputs.
type opOut struct {
	// out is the rendered output the byte-identity check compares.
	out []byte
	// jobs counts the simulated jobs (training runs) the op completed.
	jobs int
	sim  simSample
}

// simSample is the modelled (simulated) outcome of one op.
type simSample struct {
	makespan time.Duration
	waits    []time.Duration
	// busy is the delivered GPU-seconds; Σbusy/Σmakespan is sim_goodput.
	busy float64
}

func (s *simSample) add(o simSample) {
	s.makespan += o.makespan
	s.waits = append(s.waits, o.waits...)
	s.busy += o.busy
}

// phases collects host-time samples of the three phases every op has:
// handing the inputs to the system (submit), running them to completion
// (drain) and reading the outputs back (read).
type phases struct {
	submit, drain, read []time.Duration
}

// timed runs fn and appends its host time to *into.
func timed(into *[]time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*into = append(*into, time.Since(t0))
	return err
}

// spanFn runs one phase of an op, appending its host time to into. The
// traced run also puts each phase in a named span.
type spanFn func(name string, into *[]time.Duration, fn func() error) error

// timedPhase is the timed run's spanFn.
func timedPhase(_ string, into *[]time.Duration, fn func() error) error { return timed(into, fn) }

// Setup runs at least minSetups times and until setupBudget is spent
// (at most maxSetups); setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// hostProfile pins the measurement conditions every timed and traced run
// shares. Ops run on one P, so neighbour load on the other CPU and the
// scheduler's cross-core handoffs stay out of the timings. The collector
// is off inside ops and runs, untimed, between them: left on, it lands in
// every op at a different point, the largest source of run-to-run
// spread. Allocation volume is reported (alloc_mb_per_op) instead. The memory limit re-enables collection if an op ever
// allocates past it.
func hostProfile() {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)
}

// endToEnd lists the end-to-end metrics in report order. Every workload
// reports every one of them; README.md gives each one's meaning per
// workload. The submit and read phases and the drain tail are printed but
// not part of this list: outside mcsd-cycle they are small stand-in
// phases of a batch op whose medians spread past any allowed bound, so
// mcsd's own figures are reported per layer (mcs.*) instead.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"sim_jobs_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"drain_ms_p50", "ms"},
	{"sim_makespan_s", "sim-s"},
	{"sim_wait_p90_s", "sim-s"},
	{"sim_goodput", "GPU-s/s"},
	{"tableiv_err_pct", "%"},
}

// measure is the timed run: setup (several times), then ops over every
// input until the budget is spent, every op checked. Host times are
// corrected for the host's speed (hostRef), sampled between setups and
// ops.
func measure(newW func(config) workload, cfg config) (*result, error) {
	hostProfile()
	host := newHostRef()
	var setupAt []float64
	var rawSetups []time.Duration
	var w workload
	var ref [][]byte
	for setupStart := time.Now(); len(setupAt) < minSetups ||
		(len(setupAt) < maxSetups && time.Since(setupStart) < setupBudget); {
		if w != nil {
			w.close()
		}
		host.sample()
		runtime.GC()
		t0 := time.Now()
		w = newW(cfg)
		warm, err := warmUp(w)
		if err != nil {
			w.close()
			return nil, err
		}
		d := time.Since(t0)
		rawSetups = append(rawSetups, d)
		setupAt = append(setupAt, host.since(t0)+d.Seconds()/2)
		ref = make([][]byte, w.inputs())
		ref[0] = warm.out
	}
	defer w.close()
	host.sample()

	res := &result{}
	var (
		opTimes  []time.Duration
		opAt     []float64
		opPhases []phases
		sim      simSample
		opJobs   []int
		alloc    uint64
		ms0, ms1 runtime.MemStats
		digest   = sha256.New()
		start    = time.Now()
	)
	// Every input runs at least once; then ops continue until the budget
	// is spent, stopping only on an epoch boundary.
	for i := 0; i < w.inputs() || i%w.epoch() != 0 || time.Since(start) < cfg.Budget; i++ {
		k := i % w.inputs()
		runtime.GC()
		if err := w.prepare(k); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		var ph phases
		t0 := time.Now()
		out, err := w.op(k, &ph)
		dt := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		res.Attempted++
		host.tick()
		if err == nil && ref[k] != nil && !bytes.Equal(out.out, ref[k]) {
			err = fmt.Errorf("%w: input %d output differs from its first run", errCheck, k)
		}
		if err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(os.Stderr, "repobench: op %d (input %d): %v\n", i, k, err)
			}
			continue
		}
		if i < w.inputs() {
			sim.add(out.sim)
			digest.Write(out.out)
		}
		if ref[k] == nil {
			ref[k] = out.out
		}
		opTimes = append(opTimes, dt)
		opAt = append(opAt, host.since(t0)+dt.Seconds()/2)
		opPhases = append(opPhases, ph)
		opJobs = append(opJobs, out.jobs)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}
	res.Correct = res.Failed == 0
	if len(opTimes) == 0 {
		return res, nil
	}
	host.sample()
	tableIV, err := tableIVErrPct()
	if err != nil {
		return nil, err
	}

	// Every host time is corrected by the host's speed around the
	// instant it was measured (hostRef).
	setupS := make([]float64, len(setupAt))
	for i, at := range setupAt {
		setupS[i] = host.correct(at, rawSetups[i])
	}
	var opS, jobRates []float64
	var submit, drain, read []float64
	for i, at := range opAt {
		f := host.slowdown(at)
		opS = append(opS, opTimes[i].Seconds()/f)
		jobRates = append(jobRates, float64(opJobs[i])/opS[i])
		for _, d := range opPhases[i].submit {
			submit = append(submit, d.Seconds()/f)
		}
		for _, d := range opPhases[i].drain {
			drain = append(drain, d.Seconds()/f)
		}
		for _, d := range opPhases[i].read {
			read = append(read, d.Seconds()/f)
		}
	}

	res.Digest = hex.EncodeToString(digest.Sum(nil))[:16]
	res.Notes = append(res.Notes,
		fmt.Sprintf("samples: ops=%d submit=%d drain=%d read=%d setups=%d host-refs=%d",
			len(opTimes), len(submit), len(drain), len(read), len(setupAt), len(host.took)),
		fmt.Sprintf("host: refWork median %.4g ms, min %.4g ms (nominal %.4g ms); raw setup_s %.6g, raw op_s_p50 %.6g",
			1e3*median(host.took), 1e3*quantile(host.took, 0), 1e3*refNominal.Seconds(),
			median(seconds(rawSetups)), quantile(seconds(opTimes), 0.5)))
	vals := map[string]float64{
		"setup_s":         median(setupS),
		"op_s_p50":        quantile(opS, 0.5),
		"sim_jobs_per_s":  median(jobRates),
		"alloc_mb_per_op": float64(alloc) / float64(len(opTimes)) / 1e6,
		"drain_ms_p50":    1e3 * quantile(drain, 0.5),
		"sim_makespan_s":  sim.makespan.Seconds(),
		"sim_wait_p90_s":  quantile(seconds(sim.waits), 0.9),
		"sim_goodput":     sim.busy / sim.makespan.Seconds(),
		"tableiv_err_pct": tableIV,
	}
	for _, m := range endToEnd {
		res.Metrics = append(res.Metrics, metric{m.name, m.unit, vals[m.name]})
	}
	res.Extra = []metric{
		{"submit_ms_p50", "ms", 1e3 * quantile(submit, 0.5)},
		{"submit_ms_p99", "ms", 1e3 * quantile(submit, 0.99)},
		{"drain_ms_p90", "ms", 1e3 * quantile(drain, 0.9)},
		{"read_ms_p50", "ms", 1e3 * quantile(read, 0.5)},
		{"read_ms_p99", "ms", 1e3 * quantile(read, 0.99)},
	}
	return res, nil
}

// warmUp is setup plus one untimed op: it leaves w ready for the timed
// ops and returns the warm-up op's outputs.
func warmUp(w workload) (opOut, error) {
	if err := w.setup(); err != nil {
		return opOut{}, fmt.Errorf("setup: %w", err)
	}
	if err := w.prepare(0); err != nil {
		return opOut{}, fmt.Errorf("setup: %w", err)
	}
	out, err := w.op(0, &phases{})
	if err != nil {
		return opOut{}, fmt.Errorf("warm-up op: %w", err)
	}
	return out, nil
}

// tableIVRef is the paper's published Table IV (Maghraoui et al.,
// "Performance Analysis of Deep Learning Workloads on a Composable
// System", IPDPS workshops 2021): bidirectional GPU-GPU bandwidth in
// GB/s and P2P write latency in µs per pair kind.
var tableIVRef = map[string][2]float64{
	"L-L": {72.37, 1.85},
	"F-L": {19.64, 2.66},
	"F-F": {24.47, 2.08},
}

// tableIVErrPct is the mean absolute percentage error of the modelled
// Table IV (1 GiB payloads) against the paper's values, over the six
// bandwidth and latency figures.
func tableIVErrPct() (float64, error) {
	rows, err := microbench.TableIV(units.GB)
	if err != nil {
		return 0, err
	}
	var errSum float64
	n := 0
	for _, r := range rows {
		ref, ok := tableIVRef[r.Pair]
		if !ok {
			return 0, fmt.Errorf("table IV: unexpected pair %q", r.Pair)
		}
		bw := r.BidirBandwidth.GB()
		lat := float64(r.WriteLatency) / float64(time.Microsecond)
		errSum += math.Abs(bw-ref[0])/ref[0] + math.Abs(lat-ref[1])/ref[1]
		n += 2
	}
	if n != 2*len(tableIVRef) {
		return 0, fmt.Errorf("table IV: %d rows, want %d", n/2, len(tableIVRef))
	}
	return 100 * errSum / float64(n), nil
}

// layerMetrics lists the per-layer metrics of the traced run in report
// order. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.procs", "count"},
	{"fabric.route_cold_us", "us"},
	{"fabric.route_warm_ns", "ns"},
	{"fabric.recomputes", "count"},
	{"fabric.flows", "count"},
	{"fabric.links", "count"},
	{"fabric.capacity_changes", "count"},
	{"collective.allreduce_host_us", "us"},
	{"collective.allreduce_sim_ms", "sim-ms"},
	{"train.runs", "count"},
	{"train.cache_hits", "count"},
	{"train.epochs", "count"},
	{"train.checkpoints", "count"},
	{"train.restores", "count"},
	{"train.restore_sim_s", "sim-s"},
	{"cluster.compose_s", "s"},
	{"orchestrator.placements", "count"},
	{"orchestrator.retries", "count"},
	{"orchestrator.kills", "count"},
	{"orchestrator.recomposes", "count"},
	{"orchestrator.run_s", "s"},
	{"orchestrator.wait_sim_s", "sim-s"},
	{"faults.injected", "count"},
	{"faults.blast_sim_s", "sim-s"},
	{"invariant.audits", "count"},
	{"invariant.audit_s", "s"},
	{"invariant.audit_frac", "frac"},
	{"invariant.check_s", "s"},
	{"obs.spans", "count"},
	{"obs.samples", "count"},
	{"obs.trace_bytes", "B"},
	{"obs.export_s", "s"},
	{"obs.overhead_frac", "frac"},
	{"analyze.s", "s"},
	{"mcs.jobs_table", "count"},
	{"mcs.list_bytes", "B"},
	{"mcs.trace_bytes", "B"},
	{"mcs.submit_ms_p50", "ms"},
	{"mcs.submit_ms_p99", "ms"},
	{"mcs.drain_ms_p90", "ms"},
	{"mcs.read_ms_p50", "ms"},
	{"mcs.read_ms_p99", "ms"},
	{"experiments.T1_s", "s"},
	{"experiments.T2_s", "s"},
	{"experiments.T3_s", "s"},
	{"experiments.T4_s", "s"},
	{"experiments.F9_s", "s"},
	{"experiments.F10_s", "s"},
	{"experiments.F11_s", "s"},
	{"experiments.F12_s", "s"},
	{"experiments.F13_s", "s"},
	{"experiments.F14_s", "s"},
	{"experiments.F15_s", "s"},
	{"experiments.F16_s", "s"},
	{"experiments.A1_s", "s"},
	{"experiments.A2_s", "s"},
	{"experiments.A3_s", "s"},
	{"experiments.A4_s", "s"},
	{"experiments.X1_s", "s"},
	{"experiments.X2_s", "s"},
}

// measureLayers is the traced run: setup and the workload's layer
// measurements run under the benchmark's own host-time span log, which
// is written to spanDir at the end.
func measureLayers(newW func(config) workload, cfg config, spanDir string) (*result, error) {
	hostProfile()
	t := newTracer(cfg.Budget)
	w := newW(cfg)
	defer w.close()
	if _, err := t.span("setup", w.setup); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	vals, err := w.layers(t)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0 && t.attempted > 0}
	known := make(map[string]bool, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = true
		res.Metrics = append(res.Metrics, metric{m.name, m.unit, vals[m.name]})
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("workload reported unlisted per-layer metric %q", name)
		}
	}
	path, err := t.write(spanDir, cfg)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("host-time spans: %d written to %s", len(t.spans), path))
	return res, nil
}

// hostSpan is one host-time span of the traced run.
type hostSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span log; -1 for a root
	Op     int    `json:"op"`
}

// tracer is the traced run's in-memory host-time span log plus its
// correctness tally and time budget.
type tracer struct {
	t0       time.Time
	deadline time.Time
	spans    []hostSpan
	stack    []int
	// op is the current op id stamped on new spans.
	op                int
	attempted, failed int
}

func newTracer(budget time.Duration) *tracer {
	now := time.Now()
	return &tracer{t0: now, deadline: now.Add(budget)}
}

// span runs fn inside a named span nested under the innermost open one.
func (t *tracer) span(name string, fn func() error) (time.Duration, error) {
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	start := time.Since(t.t0)
	t.spans = append(t.spans, hostSpan{Name: name, Start: int64(start), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	end := time.Since(t.t0)
	t.spans[id].End = int64(end)
	return end - start, err
}

// nextOp starts a new op id for the spans that follow, collecting the
// previous op's garbage first (the collector is off inside ops).
func (t *tracer) nextOp() {
	runtime.GC()
	t.op++
}

// more reports whether the time budget has room for another repetition.
func (t *tracer) more() bool { return time.Now().Before(t.deadline) }

// check tallies one checked op: nil passes, anything else fails.
func (t *tracer) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 3 {
			fmt.Fprintf(os.Stderr, "repobench: traced op %d: %v\n", t.op, err)
		}
	}
}

// median returns the median duration, in seconds, of the spans named
// name (0 if there are none).
func (t *tracer) median(name string) float64 { return median(t.durations(name)) }

// durations returns the durations, in seconds, of the spans with any of
// the given names.
func (t *tracer) durations(names ...string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				xs = append(xs, time.Duration(s.End-s.Start).Seconds())
			}
		}
	}
	return xs
}

// write stores the span log as JSON under dir.
func (t *tracer) write(dir string, cfg config) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-seed%d-%d.json", cfg.Seed, os.Getpid()))
	return path, os.WriteFile(path, data, 0o644)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value, averaging the two middle ones for an even
// count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkf returns an errCheck-wrapped error when ok is false.
func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// spanned runs fn inside a named span and returns its value.
func spanned[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	var v T
	_, err := t.span(name, func() (err error) {
		v, err = fn()
		return err
	})
	return v, err
}

// obsLayers reads one traced op's per-layer counts from its collector:
// the registry counters, the sim engine's event count, and span counts
// and durations per layer track.
func obsLayers(col *obs.Collector) map[string]float64 {
	v := map[string]float64{
		"sim.events":              float64(col.Env().EventCount()),
		"fabric.recomputes":       float64(col.Registry().CounterValue("fabric.recomputes")),
		"orchestrator.placements": float64(col.Registry().CounterValue("orchestrator.placements")),
		"orchestrator.retries":    float64(col.Registry().CounterValue("orchestrator.retries")),
		"orchestrator.kills":      float64(col.Registry().CounterValue("orchestrator.kills")),
		"obs.spans":               float64(col.SpanCount()),
		"obs.samples":             float64(col.SampleCount()),
	}
	col.VisitSpans(func(s obs.SpanView) {
		dur := (s.End - s.Start).Seconds()
		switch {
		case s.Cat == obs.CatSim:
			v["sim.procs"]++
		case s.Cat == obs.CatFabric && s.Name == "flow":
			v["fabric.flows"]++
		case s.Cat == obs.CatFabric && (s.Name == "link-degrade" || s.Name == "link-repair"):
			v["fabric.capacity_changes"]++
		case s.Cat == obs.CatTrain && s.Name == "epoch":
			v["train.epochs"]++
		case s.Cat == obs.CatTrain && s.Name == "checkpoint":
			v["train.checkpoints"]++
		case s.Cat == obs.CatTrain && s.Name == "restore":
			v["train.restores"]++
			v["train.restore_sim_s"] += dur
		case s.Cat == obs.CatOrchestrator && s.Name == "run":
			v["train.runs"]++
		case s.Cat == obs.CatOrchestrator && s.Name == "recompose":
			v["orchestrator.recomposes"]++
		case s.Cat == obs.CatOrchestrator && s.Name == "wait":
			v["orchestrator.wait_sim_s"] += dur
		case s.Cat == obs.CatFaults:
			v["faults.injected"]++
			v["faults.blast_sim_s"] += dur
		}
	})
	return v
}

// exportAndAnalyze prices what a traced run costs after the simulation:
// the Chrome-trace export and the trace analysis with its text report.
// It returns the exported trace size in bytes.
func exportAndAnalyze(t *tracer, col *obs.Collector) (float64, error) {
	var buf bytes.Buffer
	if _, err := t.span("obs.WriteTrace", func() error { return col.WriteTrace(&buf) }); err != nil {
		return 0, err
	}
	_, err := t.span("analyze.Analyze", func() error {
		a := analyze.FromCollector(col).Analyze()
		return analyze.WriteText(io.Discard, a, nil, nil, 5)
	})
	return float64(buf.Len()), err
}

// addLayers sums per-layer counts.
func addLayers(into, from map[string]float64) {
	for k, x := range from {
		into[k] += x
	}
}
