package obs

import (
	"time"

	"composable/internal/sim"
)

// DefaultInterval is the sampling interval used when none is set.
const DefaultInterval = 100 * time.Millisecond

// Sampler is the simulator's one periodic metric sampler, the stand-in
// for the paper's probe sweeps (wandb system metrics, nvidia-smi, the
// Falcon port monitors). Every interval of sim time it snapshots every
// metric of its Registry into one columnar row: a shared times column
// plus one value column per metric, in registration order. Training runs
// sample their probe gauges with one; a Collector samples the fleet-wide
// registry with another.
type Sampler struct {
	env      *sim.Env
	reg      *Registry
	interval time.Duration

	times   []sim.Time
	cols    [][]float64
	sp      *sim.Proc
	primed  bool // first step only arms the first tick
	stopped bool
}

// NewSampler returns a sampler over reg that ticks every interval of
// env's sim time once started. Non-positive intervals use
// DefaultInterval.
func NewSampler(env *sim.Env, reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{env: env, reg: reg, interval: interval}
}

// Start spawns the sampling stepper. The metrics registered at this
// point are the sampled columns; metrics registered later are not
// sampled, so wire every metric first.
//
// The sampler is a stepper, not a goroutine-backed process: each tick is
// one inline step (sample every metric, re-arm) instead of a park/wake
// pair. The first step runs at the start time and only arms the first
// tick, so samples land at start+interval, start+2·interval, …
func (s *Sampler) Start() {
	s.cols = make([][]float64, s.reg.Len())
	s.sp = s.env.NewStepper("obs-sampler", s.step)
	s.primed = false
	s.stopped = false
	s.env.Ready(s.sp)
}

// Stop ends sampling: the currently armed tick fires without sampling or
// re-arming, so the event queue can drain.
func (s *Sampler) Stop() { s.stopped = true }

//perf:hot
func (s *Sampler) step() {
	if s.stopped {
		return
	}
	if !s.primed {
		s.primed = true
		s.env.ReadyAfter(s.sp, s.interval)
		return
	}
	s.times = append(s.times, s.env.Now())
	for i := range s.cols {
		s.cols[i] = append(s.cols[i], s.reg.value(i))
	}
	s.env.ReadyAfter(s.sp, s.interval)
}

// Len returns the number of sampling ticks taken.
func (s *Sampler) Len() int { return len(s.times) }

// last returns the time of the latest sample (0 before the first).
func (s *Sampler) last() sim.Time {
	if len(s.times) == 0 {
		return 0
	}
	return s.times[len(s.times)-1]
}

// Names returns the sampled metrics' names in registration order.
func (s *Sampler) Names() []string {
	out := make([]string, len(s.cols))
	for i := range s.cols {
		out[i] = s.reg.Name(i)
	}
	return out
}

// Series returns the named metric's samples as a view over the shared
// time column, or nil if the metric is not sampled. The view is capped,
// so an append through it cannot write into the sampler's columns.
func (s *Sampler) Series(name string) *Series {
	i := s.reg.lookup(name)
	if i < 0 || i >= len(s.cols) {
		return nil
	}
	n := len(s.times)
	return &Series{Name: name, Times: s.times[:n:n], Values: s.cols[i][:n:n]}
}
