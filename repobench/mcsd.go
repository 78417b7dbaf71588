package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/mcs"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/train"
)

// mcsd-cycle shape. Every epoch runs mcsdCycles cycles on a fresh
// server, so every epoch sees the same job-table sizes (12 to
// 12×mcsdCycles). The inputs are mcsdServers epochs, each drain with its
// own fault schedule.
const (
	mcsdCycles  = 8
	mcsdServers = 64
	mcsdSubmits = 12
	// Every job trains mcsdTrainEpochs epochs of mcsdTrainIters
	// iterations, so faults can land between checkpoints.
	mcsdTrainIters  = 3
	mcsdTrainEpochs = 2
	// mcsdMTBF is the drain fault profile's mean time between failures.
	mcsdMTBF = 4 * time.Second
	// mcsdSLO makes every drain's health report carry the fleet goodput.
	mcsdSLO = "goodput>=0"
)

var (
	mcsdAdmin   = mcs.User{Name: "root", Role: mcs.RoleAdmin, Token: "tok-root"}
	mcsdTenants = []mcs.User{
		{Name: "alice", Role: mcs.RoleUser, Token: "tok-alice", Hosts: []string{"host1"}},
		{Name: "bob", Role: mcs.RoleUser, Token: "tok-bob", Hosts: []string{"host2"}},
		{Name: "carol", Role: mcs.RoleUser, Token: "tok-carol", Hosts: []string{"host3"}},
	}
	mcsdWorkloads = []string{"ResNet-50", "BERT", "MobileNetV2"}
)

// mcsdCycle drives an in-process mcs server over one keep-alive HTTP
// connection from one client goroutine. One op is one cycle: 12 tenant
// submits, one admin drain under a seeded fault profile, each tenant's
// job list, one job trace, and the admin health view.
type mcsdCycle struct {
	seed      int64
	srv       *httptest.Server
	transport *http.Transport
	client    *http.Client
}

func newMCSDCycle(cfg config) workload { return &mcsdCycle{seed: cfg.Seed} }

func (w *mcsdCycle) setup() error {
	w.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	w.client = &http.Client{Transport: w.transport}
	return nil
}

func (w *mcsdCycle) inputs() int { return mcsdCycles * mcsdServers }
func (w *mcsdCycle) epoch() int  { return mcsdCycles }

// prepare starts a fresh server, with an empty job table, before the
// first cycle of every epoch.
func (w *mcsdCycle) prepare(k int) error {
	if k%mcsdCycles != 0 {
		return nil
	}
	w.stopServer()
	srv := mcs.NewServer(falcon.New("bench"), append([]mcs.User{mcsdAdmin}, mcsdTenants...))
	if err := srv.SetSLO(mcsdSLO); err != nil {
		return err
	}
	w.srv = httptest.NewServer(srv.Handler())
	return nil
}

func (w *mcsdCycle) stopServer() {
	if w.srv != nil {
		w.transport.CloseIdleConnections()
		w.srv.Close()
		w.srv = nil
	}
}

func (w *mcsdCycle) close() {
	w.stopServer()
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
}

// faultSeed is the drain fault schedule of input k.
func (w *mcsdCycle) faultSeed(k int) int64 { return w.seed*int64(w.inputs()) + int64(k) + 1 }

// do sends one request and returns the body, failing unless the status
// is the one the API promises.
func (w *mcsdCycle) do(method, path, token string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, w.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%w: %s %s: status %d, want %d: %s", errCheck, method, path, resp.StatusCode, want, data)
	}
	return data, nil
}

// submission is the j-th job of an epoch's cycle n: tenants take turns, workloads and
// 2- or 4-GPU demands rotate.
func submission(n, j int) (tenant int, body []byte) {
	return j % len(mcsdTenants), []byte(fmt.Sprintf(`{"workload":%q,"gpus":%d,"iters":%d,"epochs":%d}`,
		submitWorkload(n, j), submitGPUs(n, j), mcsdTrainIters, mcsdTrainEpochs))
}

func submitWorkload(n, j int) string { return mcsdWorkloads[(j+n)%len(mcsdWorkloads)] }
func submitGPUs(n, j int) int        { return 2 + 2*((j/3+n)%2) }

// drainReply is the part of the POST /api/jobs/run reply the benchmark
// checks.
type drainReply struct {
	Ran        int   `json:"ran"`
	MakespanMS int64 `json:"makespanMs"`
	Faults     int   `json:"faults"`
	Kills      int   `json:"kills"`
	FailedJobs int   `json:"failedJobs"`
}

// healthReply is the part of the admin GET /api/health body the
// benchmark reads.
type healthReply struct {
	LastDrain *struct {
		Jobs int `json:"jobs"`
		SLO  *struct {
			Checks []struct {
				Clause string `json:"clause"`
				Actual string `json:"actual"`
			} `json:"checks"`
		} `json:"slo"`
	} `json:"lastDrain"`
}

// cycleOut is one cycle's checked outputs.
type cycleOut struct {
	out        []byte
	drain      drainReply
	sim        simSample
	listBytes  int
	traceBytes int
}

func (w *mcsdCycle) op(k int, ph *phases) (opOut, error) {
	c, err := w.cycle(k, ph, timedPhase)
	if err != nil {
		return opOut{}, err
	}
	return opOut{out: c.out, jobs: c.drain.Ran - c.drain.FailedJobs, sim: c.sim}, nil
}

// cycle runs input k — cycle k mod mcsdCycles of its epoch's server —
// and checks every response.
func (w *mcsdCycle) cycle(k int, ph *phases, span spanFn) (*cycleOut, error) {
	var out bytes.Buffer
	c := &cycleOut{}
	n := k % mcsdCycles
	base := n * mcsdSubmits // job IDs are table positions; the table starts empty
	for j := 0; j < mcsdSubmits; j++ {
		tenant, body := submission(n, j)
		var data []byte
		err := span("mcs.submit", &ph.submit, func() (err error) {
			data, err = w.do("POST", "/api/jobs", mcsdTenants[tenant].Token, body, http.StatusCreated)
			return err
		})
		if err != nil {
			return nil, err
		}
		var rec mcs.JobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, err
		}
		if rec.ID != base+j || rec.Owner != mcsdTenants[tenant].Name || rec.Status != "queued" {
			return nil, checkf(false, "submit %d: got record %+v", base+j, rec)
		}
		out.Write(data)
	}

	runBody := []byte(fmt.Sprintf(`{"mtbfMs":%d,"faultSeed":%d}`, mcsdMTBF.Milliseconds(), w.faultSeed(k)))
	var data []byte
	err := span("mcs.drain", &ph.drain, func() (err error) {
		data, err = w.do("POST", "/api/jobs/run", mcsdAdmin.Token, runBody, http.StatusOK)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &c.drain); err != nil {
		return nil, err
	}
	if c.drain.Ran != mcsdSubmits {
		return nil, checkf(false, "drain ran %d jobs, %d were submitted", c.drain.Ran, mcsdSubmits)
	}
	out.Write(data)
	c.sim.makespan = time.Duration(c.drain.MakespanMS) * time.Millisecond

	for ti, u := range mcsdTenants {
		err := span("mcs.list", &ph.read, func() (err error) {
			data, err = w.do("GET", "/api/jobs", u.Token, nil, http.StatusOK)
			return err
		})
		if err != nil {
			return nil, err
		}
		var recs []mcs.JobRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, err
		}
		if len(recs) != (n+1)*mcsdSubmits/len(mcsdTenants) {
			return nil, checkf(false, "%s lists %d jobs after cycle %d", u.Name, len(recs), n)
		}
		for _, r := range recs {
			if r.Owner != u.Name || r.Status == "queued" {
				return nil, checkf(false, "%s's list holds job %d owner %s status %s", u.Name, r.ID, r.Owner, r.Status)
			}
			if r.ID >= base && r.Status == "done" {
				c.sim.waits = append(c.sim.waits, time.Duration(r.WaitMS)*time.Millisecond)
			}
		}
		if ti == 0 {
			c.listBytes = len(data)
		}
		out.Write(data)
	}

	u := mcsdTenants[n%len(mcsdTenants)]
	traceID := base + n%len(mcsdTenants) // that tenant's first job this cycle
	err = span("mcs.trace", &ph.read, func() (err error) {
		data, err = w.do("GET", "/api/jobs/"+strconv.Itoa(traceID)+"/trace", u.Token, nil, http.StatusOK)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !json.Valid(data) || len(data) < 2 {
		return nil, checkf(false, "job %d trace is not JSON (%d bytes)", traceID, len(data))
	}
	c.traceBytes = len(data)
	out.Write(data)

	err = span("mcs.health", &ph.read, func() (err error) {
		data, err = w.do("GET", "/api/health", mcsdAdmin.Token, nil, http.StatusOK)
		return err
	})
	if err != nil {
		return nil, err
	}
	var h healthReply
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, err
	}
	if h.LastDrain == nil || h.LastDrain.Jobs != mcsdSubmits || h.LastDrain.SLO == nil || len(h.LastDrain.SLO.Checks) != 1 {
		return nil, checkf(false, "health does not describe the last drain: %s", data)
	}
	goodput, err := strconv.ParseFloat(h.LastDrain.SLO.Checks[0].Actual, 64)
	if err != nil {
		return nil, checkf(false, "health goodput %q", h.LastDrain.SLO.Checks[0].Actual)
	}
	c.sim.busy = goodput * c.sim.makespan.Seconds()
	out.Write(data)
	c.out = out.Bytes()
	return c, nil
}

// mirrorDrain re-runs cycle k's drain outside the server, from the same
// public calls the server's drain makes, so its per-layer counts can be
// read from a collector. col nil runs it untraced. It also returns the
// fleet's fabric link count.
func (w *mcsdCycle) mirrorDrain(t *tracer, k int, col *obs.Collector) (*orchestrator.FleetResult, int, error) {
	const hosts, gpus = 3, 12 // the server's default drain fleet
	specs := make([]orchestrator.JobSpec, mcsdSubmits)
	for j := range specs {
		n := k % mcsdCycles
		specs[j] = orchestrator.JobSpec{
			Arrival: time.Duration(j) * 100 * time.Millisecond, Tenant: j % len(mcsdTenants),
			GPUs: submitGPUs(n, j), Workload: submitWorkload(n, j),
			Strategy: train.DDP, Precision: gpu.FP16, Epochs: mcsdTrainEpochs, ItersPerEpoch: mcsdTrainIters,
		}
	}
	env := sim.NewEnv()
	if col != nil {
		col.Attach(env)
	}
	f, err := spanned(t, "cluster.ComposeFleet", func() (*cluster.FleetSystem, error) {
		return cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: hosts, GPUs: gpus})
	})
	if err != nil {
		return nil, 0, err
	}
	if col != nil {
		f.AttachObs(col)
	}
	pol, err := orchestrator.PolicyByName("drawer")
	if err != nil {
		return nil, 0, err
	}
	plan := faults.PlanMTBF(w.faultSeed(k), mcsdMTBF, faults.Bounds{
		Slots: gpus, SlotsPerDrawer: falcon.SlotsPerDrawer, Hosts: hosts,
	})
	name := "orchestrator.Run"
	if col != nil {
		name = "orchestrator.Run.traced"
	}
	res, err := spanned(t, name, func() (*orchestrator.FleetResult, error) {
		return orchestrator.Run(f, specs, orchestrator.Options{
			Policy: pol, AttachLatency: orchestrator.DefaultAttachLatency, Faults: &plan, Obs: col,
		})
	})
	return res, len(f.Net.Links()), err
}

// layers runs whole epochs with every request in a span. In the first
// epoch each drain is mirrored, traced and untraced, for the per-layer
// counts; the mirror must reproduce the server's drain reply.
func (w *mcsdCycle) layers(t *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	span := func(name string, into *[]time.Duration, fn func() error) error {
		_, err := t.span(name, func() error { return timed(into, fn) })
		return err
	}
	ref := make([][]byte, w.inputs())
	var listBytes, traceBytes, tracedS, plainS []float64
	for e := 0; e == 0 || t.more(); e++ {
		var traced, plain float64
		for n := 0; n < mcsdCycles; n++ {
			k := (e*mcsdCycles + n) % w.inputs()
			if err := w.prepare(k); err != nil {
				return nil, err
			}
			t.nextOp()
			var ph phases
			c, err := w.cycle(k, &ph, span)
			if err != nil {
				t.check(err)
				continue
			}
			if ref[k] == nil {
				ref[k] = c.out
			}
			t.check(checkf(bytes.Equal(c.out, ref[k]), "input %d responses changed", k))
			listBytes = append(listBytes, float64(c.listBytes))
			traceBytes = append(traceBytes, float64(c.traceBytes))

			d, err := t.span("mcs.mirrorDrain", func() error {
				_, _, err := w.mirrorDrain(t, k, nil)
				return err
			})
			if err != nil {
				return nil, err
			}
			plain += d.Seconds()
			col := obs.NewCollector()
			var res *orchestrator.FleetResult
			var links int
			d, err = t.span("mcs.mirrorDrain.traced", func() (err error) {
				res, links, err = w.mirrorDrain(t, k, col)
				return err
			})
			if err != nil {
				return nil, err
			}
			traced += d.Seconds()
			t.check(checkf(res.Makespan.Milliseconds() == c.drain.MakespanMS && res.Faults == c.drain.Faults &&
				res.Kills == c.drain.Kills && res.FailedJobs == c.drain.FailedJobs,
				"input %d: mirror drain (makespan %v, %d faults, %d kills) differs from the server's %+v",
				k, res.Makespan, res.Faults, res.Kills, c.drain))
			tb, err := exportAndAnalyze(t, col)
			if err != nil {
				return nil, err
			}
			if e == 0 {
				addLayers(vals, obsLayers(col))
				vals["obs.trace_bytes"] += tb
				vals["fabric.links"] += float64(links)
			}
		}
		tracedS, plainS = append(tracedS, traced), append(plainS, plain)
	}
	vals["mcs.jobs_table"] = mcsdCycles * mcsdSubmits
	vals["mcs.list_bytes"] = median(listBytes)
	vals["mcs.trace_bytes"] = median(traceBytes)
	reads := t.durations("mcs.list", "mcs.trace", "mcs.health")
	vals["mcs.submit_ms_p50"] = 1e3 * quantile(t.durations("mcs.submit"), 0.5)
	vals["mcs.submit_ms_p99"] = 1e3 * quantile(t.durations("mcs.submit"), 0.99)
	vals["mcs.drain_ms_p90"] = 1e3 * quantile(t.durations("mcs.drain"), 0.9)
	vals["mcs.read_ms_p50"] = 1e3 * quantile(reads, 0.5)
	vals["mcs.read_ms_p99"] = 1e3 * quantile(reads, 0.99)
	vals["orchestrator.run_s"] = t.median("orchestrator.Run")
	vals["cluster.compose_s"] = t.median("cluster.ComposeFleet")
	vals["sim.events_per_s"] = vals["sim.events"] / median(plainS)
	vals["obs.overhead_frac"] = median(tracedS)/median(plainS) - 1
	vals["obs.export_s"] = t.median("obs.WriteTrace")
	vals["analyze.s"] = t.median("analyze.Analyze")
	return vals, nil
}
