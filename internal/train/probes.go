package train

import (
	"time"

	"composable/internal/cluster"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/units"
)

// Metric series names recorded by every run.
const (
	SeriesGPUUtil    = "gpu_util"
	SeriesGPUMemUtil = "gpu_mem_util"
	SeriesCPUUtil    = "cpu_util"
	SeriesHostMem    = "host_mem_util"
	SeriesFalconGBps = "falcon_pcie_gbps"
)

// TrackEvents names the run's annotated event track (Result.Track):
// training lifecycle marks (epoch, checkpoint, restore, done/abort)
// recorded alongside the sampled series, so figures and CSV exports can
// overlay when checkpoints and faults happened on the utilization curves.
const TrackEvents = "events"

// startProbes registers the probes the paper's tooling collected as
// gauges on a per-run registry — windowed GPU utilization (nvidia-smi),
// GPU memory, host CPU and memory (wandb system metrics) and Falcon port
// traffic (chassis GUI) — and starts sampling them every interval.
func startProbes(sys *cluster.System, interval time.Duration) *obs.Sampler {
	reg := &obs.Registry{}

	// GPU utilization: windowed busy fraction averaged across devices.
	type snap struct{ t, busy sim.Time }
	gpuMarks := make([]snap, len(sys.GPUs))
	reg.Gauge(SeriesGPUUtil, func() float64 {
		sum := 0.0
		for i, g := range sys.GPUs {
			u := g.UtilizationSince(gpuMarks[i].t, gpuMarks[i].busy)
			gpuMarks[i].t, gpuMarks[i].busy = g.BusySnapshot()
			sum += u
		}
		return sum / float64(len(sys.GPUs))
	})
	reg.Gauge(SeriesGPUMemUtil, func() float64 {
		sum := 0.0
		for _, g := range sys.GPUs {
			sum += g.MemUtilization()
		}
		return sum / float64(len(sys.GPUs))
	})
	var cpuMark snap
	reg.Gauge(SeriesCPUUtil, func() float64 {
		u := sys.Host.UtilizationSince(cpuMark.t, cpuMark.busy)
		cpuMark.t, cpuMark.busy = sys.Host.BusySnapshot()
		return u
	})
	reg.Gauge(SeriesHostMem, func() float64 { return sys.Host.MemUtilization() })

	if len(sys.FalconGPUPortLinks) > 0 {
		last := make(map[int]units.Bytes)
		var lastT sim.Time
		reg.Gauge(SeriesFalconGBps, func() float64 {
			now := sys.Env.Now()
			dt := (now - lastT).Seconds()
			var delta units.Bytes
			for i, id := range sys.FalconGPUPortLinks {
				ab, ba := sys.Net.LinkTrafficSnapshot(id)
				cur := ab + ba
				delta += cur - last[i]
				last[i] = cur
			}
			lastT = now
			if dt <= 0 {
				return 0
			}
			// Same wire-overhead accounting as Result.FalconPCIeGBps.
			return float64(delta) * pcieWireOverhead / dt / 1e9
		})
	}
	smp := obs.NewSampler(sys.Env, reg, interval)
	smp.Start()
	return smp
}
