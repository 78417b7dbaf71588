package invariant

import (
	"math"
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

func TestCleanSetHasNoError(t *testing.T) {
	s := New()
	if !s.Ok() || s.Err() != nil || s.Count() != 0 {
		t.Fatalf("fresh set not clean: ok=%v err=%v count=%d", s.Ok(), s.Err(), s.Count())
	}
}

func TestReportAndErrRendering(t *testing.T) {
	s := New()
	s.Report("test/rule", time.Second, "value %d too big", 42)
	if s.Ok() {
		t.Fatal("set still Ok after Report")
	}
	err := s.Err()
	if err == nil {
		t.Fatal("Err() == nil after Report")
	}
	for _, want := range []string{"test/rule", "t=1s", "value 42 too big"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestReportCapsRetainedViolations(t *testing.T) {
	s := New()
	for i := 0; i < maxRecorded+10; i++ {
		s.Report("test/flood", 0, "violation %d", i)
	}
	if s.Count() != maxRecorded+10 {
		t.Fatalf("Count() = %d, want %d", s.Count(), maxRecorded+10)
	}
	if len(s.Violations()) != maxRecorded {
		t.Fatalf("retained %d violations, want cap %d", len(s.Violations()), maxRecorded)
	}
	if !strings.Contains(s.Err().Error(), "and 10 more") {
		t.Errorf("error does not mention the overflow: %v", s.Err())
	}
}

func TestWatchEnvPassesCleanRun(t *testing.T) {
	env := sim.NewEnv()
	s := New()
	s.WatchEnv(env)
	env.Go("ticker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

func TestTrainProbeDetectsBackwardsTime(t *testing.T) {
	s := New()
	probe := s.TrainProbe()
	probe(train.ProbeEpoch, 2*time.Second)
	probe(train.ProbeEpoch, time.Second) // backwards
	probe(train.ProbeDone, -time.Second) // negative and backwards
	if s.Ok() {
		t.Fatal("backwards probe times not detected")
	}
	err := s.Err().Error()
	if !strings.Contains(err, "train/time-monotonic") {
		t.Errorf("missing monotonicity violation: %v", err)
	}
	if !strings.Contains(err, "train/time-positive") {
		t.Errorf("missing negative-time violation: %v", err)
	}
}

func TestWatchNetworkPassesContendedTransfers(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	sw := net.AddNode("sw", fabric.KindSwitch)
	var eps []fabric.NodeID
	for i := 0; i < 4; i++ {
		eps = append(eps, net.AddNode("ep", fabric.KindGPU))
		net.ConnectSym(eps[i], sw, units.GBps(10), time.Microsecond, "pcie")
	}
	s := New()
	s.WatchEnv(env)
	s.WatchNetwork(net)
	for i := 0; i < 4; i++ {
		src, dst := eps[i], eps[(i+1)%4]
		env.Go("driver", func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				if err := net.Transfer(p, src, dst, 64*units.MB); err != nil {
					panic(err)
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("contended transfers violated invariants: %v", err)
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("%d flows left active", net.ActiveFlows())
	}
}

// TestWatchNetworkAcceptsSanctionedCapacityChange pins the conservation
// audit's fault support: degrading a link through SetLinkCapacity while
// traffic crosses it (and repairing it later) is what the fault engine
// does, and must not read as a byte-conservation violation — the capacity
// integral is accumulated window by window with the capacity that was in
// effect, not recomputed from the final capacity.
func TestWatchNetworkAcceptsSanctionedCapacityChange(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	b := net.AddNode("b", fabric.KindGPU)
	id := net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	s.WatchNetwork(net)
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil { // full speed
			panic(err)
		}
		net.SetLinkCapacity(id, units.MBps(100), units.MBps(100)) // degrade ×100
		if err := net.Transfer(p, a, b, 10*units.MB); err != nil {
			panic(err)
		}
		net.SetLinkCapacity(id, units.GBps(10), units.GBps(10)) // repair
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("sanctioned capacity changes flagged as violations: %v", err)
	}
}

// TestWatchNetworkDetectsByteOverrun proves the conservation audit is not
// vacuous. With lazy integration the allocator can only trip it through an
// arithmetic bug (moving more bytes than the in-effect capacity allowed),
// so the test forges exactly that state white-box: erase the link's
// accumulated integral under counters that already carry 100 MB and pin
// its in-effect capacity near zero from now on. The next transfer makes
// the link busy, so the next audit checks it and must flag the history as
// unaffordable.
func TestWatchNetworkDetectsByteOverrun(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	b := net.AddNode("b", fabric.KindGPU)
	id := net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	audit := s.watchNetwork(net)
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
		la := &audit.links[id]
		la.integ = [2]float64{}
		la.capa = [2]float64{1, 1} // 1 B/s from now on: history unaffordable
		la.since = env.Now()
		if err := net.Transfer(p, b, a, units.KB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Ok() {
		t.Fatal("byte-counter overrun not detected")
	}
	if !strings.Contains(s.Err().Error(), "fabric/bytes-conserved") {
		t.Fatalf("unexpected violations: %v", s.Err())
	}
}

// TestWatchNetworkDetectsBackwardsCounters forges the last-seen counters
// of a link above what it has moved; the audit of the next transfer
// across it must read that as counters running backwards.
func TestWatchNetworkDetectsBackwardsCounters(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	b := net.AddNode("b", fabric.KindGPU)
	id := net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	audit := s.watchNetwork(net)
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
		audit.links[id].seen[0] += units.MB
		if err := net.Transfer(p, a, b, units.KB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rules(s); len(got) == 0 || got[0] != "fabric/bytes-monotonic" {
		t.Fatalf("violations %v, want fabric/bytes-monotonic first: %v", got, s.Err())
	}
}

// TestNetworkChecksFire drives each per-direction and per-flow check with
// a violating value and with a value at its bound: every rule must fire
// on the first and stay silent on the second.
func TestNetworkChecksFire(t *testing.T) {
	nan := units.BytesPerSec(math.NaN())
	for _, tc := range []struct {
		rule      string
		violate   func(a *netAudit)
		atTheEdge func(a *netAudit)
	}{
		{"fabric/link-capacity",
			func(a *netAudit) { a.checkAllocation(0, false, 2e9+2, 1e9) },
			func(a *netAudit) { a.checkAllocation(0, true, 1e9, 1e9) }},
		{"fabric/flow-rate",
			func(a *netAudit) { a.checkFlow(0, 1, -1, 0, units.MB); a.checkFlow(0, 1, nan, 0, units.MB) },
			func(a *netAudit) { a.checkFlow(0, 1, 0, 0, units.MB) }},
		{"fabric/flow-rate-cap",
			func(a *netAudit) { a.checkFlow(0, 1, 2e9, 1e9, units.MB) },
			func(a *netAudit) { a.checkFlow(0, 1, 1e9, 1e9, units.MB) }},
		{"fabric/flow-remaining",
			func(a *netAudit) { a.checkFlow(0, 1, 1e9, 0, -1) },
			func(a *netAudit) { a.checkFlow(0, 1, 1e9, 0, 0) }},
		{"fabric/bytes-monotonic",
			func(a *netAudit) {
				a.checkBytes(0, &linkAudit{seen: [2]units.Bytes{10, 0}, integ: [2]float64{1e9, 1e9}}, 9, 0)
			},
			func(a *netAudit) {
				a.checkBytes(0, &linkAudit{seen: [2]units.Bytes{10, 5}, integ: [2]float64{1e9, 1e9}}, 10, 5)
			}},
		{"fabric/bytes-conserved",
			func(a *netAudit) { a.checkBytes(0, &linkAudit{integ: [2]float64{1e9, 1e9}}, 0, 1e9+units.KB) },
			func(a *netAudit) { a.checkBytes(0, &linkAudit{integ: [2]float64{1e9, 1e9}}, 1e9, 1e9) }},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			s := New()
			a := s.watchNetwork(fabric.NewNetwork(sim.NewEnv()))
			tc.atTheEdge(a)
			if !s.Ok() {
				t.Fatalf("value at the bound flagged: %v", s.Err())
			}
			tc.violate(a)
			got := rules(s)
			if len(got) == 0 {
				t.Fatal("violation not detected")
			}
			for _, r := range got {
				if r != tc.rule {
					t.Fatalf("violations %v, want only %s", got, tc.rule)
				}
			}
		})
	}
}

// TestWatchTwoNetworksKeepsLinksApart watches two fabrics with one Set.
// Both number their only link 0; an auditor keyed by LinkID alone would
// compare the idle network's counters against the busy one's and report
// them running backwards.
func TestWatchTwoNetworksKeepsLinksApart(t *testing.T) {
	env := sim.NewEnv()
	s := New()
	type pair struct {
		net  *fabric.Network
		a, b fabric.NodeID
	}
	var nets [2]pair
	for i := range nets {
		net := fabric.NewNetwork(env)
		a := net.AddNode("a", fabric.KindGPU)
		b := net.AddNode("b", fabric.KindGPU)
		net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")
		s.WatchNetwork(net)
		nets[i] = pair{net, a, b}
	}
	env.Go("driver", func(p *sim.Proc) {
		for _, n := range nets {
			if err := n.net.Transfer(p, n.a, n.b, 100*units.MB); err != nil {
				panic(err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("two watched networks interfered: %v", err)
	}
}

// TestNetworkAuditAllocatesNothing pins the auditor's steady state: with
// flows in flight and every link known, an audit allocates nothing.
func TestNetworkAuditAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	sw := net.AddNode("sw", fabric.KindSwitch)
	var eps []fabric.NodeID
	for i := 0; i < 4; i++ {
		eps = append(eps, net.AddNode("ep", fabric.KindGPU))
		net.ConnectSym(eps[i], sw, units.GBps(10), time.Microsecond, "pcie")
	}
	s := New()
	audit := s.watchNetwork(net)
	allocs := -1.0
	env.Go("driver", func(p *sim.Proc) {
		for i := range eps {
			if _, err := net.StartFlowLimited(eps[i], eps[(i+1)%4], units.GB, units.GBps(4)); err != nil {
				panic(err)
			}
		}
		p.Sleep(time.Millisecond)
		audit.audit()
		allocs = testing.AllocsPerRun(100, audit.audit)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state audit allocates %v times, want 0", allocs)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// rules lists the rule of every retained violation, in order.
func rules(s *Set) []string {
	var out []string
	for _, v := range s.Violations() {
		out = append(out, v.Rule)
	}
	return out
}

// TestFullRunCleanUnderWatch runs a real (small) training job with every
// probe attached and expects a clean set.
func TestFullRunCleanUnderWatch(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.HybridGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Watch(sys)
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.MobileNetV2Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 3,
		Probe:         s.TrainProbe(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.CheckResult(sys, res)
	if err := s.Err(); err != nil {
		t.Fatalf("clean training run violated invariants: %v", err)
	}
}

// TestCheckResultDetectsCorruptedResult proves the post-run checks bite.
func TestCheckResultDetectsCorruptedResult(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.MobileNetV2Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.AvgGPUUtil = 1.5      // not a fraction
	res.TotalTime = -1        // negative
	res.EpochTimes = nil      // count mismatch
	res.FalconPCIeGBps = -0.1 // negative traffic
	s := New()
	s.CheckResult(sys, res)
	errStr := s.Err().Error()
	for _, want := range []string{
		"train/util-fraction", "train/total-time", "train/epoch-count", "train/falcon-traffic",
	} {
		if !strings.Contains(errStr, want) {
			t.Errorf("corrupted result: missing %s violation in %v", want, errStr)
		}
	}
}
