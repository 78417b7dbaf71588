package fabric

import (
	"fmt"
	"math"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// referenceFill is the global progressive fill the component-scoped
// recompute must agree with: every round scans every constraint carrying
// flows, in cons order, and freezes the flows of the first one with the
// smallest fair share at that share. It returns the rates indexed like
// n.flows and leaves the network untouched.
func referenceFill(n *Network) []float64 {
	var cons []*constraint
	residual := make(map[*constraint]float64)
	unfrozen := make(map[*constraint]int)
	for _, st := range n.cons {
		if len(st.flows) == 0 {
			continue
		}
		cons = append(cons, st)
		residual[st] = st.capacity()
		unfrozen[st] = len(st.flows)
	}
	rates := make([]float64, len(n.flows))
	frozen := make([]bool, len(n.flows))
	for {
		bestShare := math.Inf(1)
		var best *constraint
		for _, st := range cons {
			if unfrozen[st] == 0 {
				continue
			}
			if share := residual[st] / float64(unfrozen[st]); share < bestShare {
				bestShare, best = share, st
			}
		}
		if best == nil {
			return rates
		}
		for _, cf := range best.flows {
			f := cf.f
			if frozen[f.idx] {
				continue
			}
			frozen[f.idx] = true
			rates[f.idx] = bestShare
			for _, fc := range f.cons {
				residual[fc.st] = math.Max(residual[fc.st]-bestShare, 0)
				unfrozen[fc.st]--
			}
		}
	}
}

// checkFill reports the first flow whose rate differs from referenceFill's
// in any bit, or nil.
func checkFill(n *Network) error {
	want := referenceFill(n)
	for i, f := range n.flows {
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			return fmt.Errorf("t=%v: flow %d (%d→%d) rate %v, reference %v",
				time.Duration(n.env.Now()), i, f.Src, f.Dst, f.rate, want[i])
		}
	}
	return nil
}

// maxFillErrors caps the mismatches one watched run reports.
const maxFillErrors = 10

// WatchFillAgainstReference checks every flow's rate against
// referenceFill after every recompute of n, running n's current auditor
// first. The returned func reports how many recomputes were checked.
// Exported for the external tests that build fabrics through package
// cluster.
func WatchFillAgainstReference(t testing.TB, n *Network) (checked func() int) {
	prev := n.auditor
	checks, errs := 0, 0
	n.SetAuditor(func() {
		if prev != nil {
			prev()
		}
		checks++
		if err := checkFill(n); err != nil {
			if errs++; errs <= maxFillErrors {
				t.Errorf("recompute %d: %v", checks, err)
			}
		}
	})
	return func() int { return checks }
}

// TestFillRefillsOnlyTouchedComponents runs three independent pairs of
// flows through degrade, repair, completion and a capped start. Every
// recompute must match the global reference, and the work counters must
// show that a change refilled only its own component.
func TestFillRefillsOnlyTouchedComponents(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env)
	sw := n.AddNode("sw", KindSwitch)
	var gpus [6]NodeID
	var links [6]LinkID
	for i := range gpus {
		gpus[i] = n.AddNode(fmt.Sprintf("gpu%d", i), KindGPU)
		links[i] = n.ConnectSym(gpus[i], sw, units.GBps(10), time.Microsecond, "pcie")
	}
	checked := WatchFillAgainstReference(t, n)

	// Components: {gpu0→gpu1, gpu0→gpu1}, {gpu2→gpu3 ×2}, {gpu4→gpu5 ×2}.
	var flows []*Flow
	for c := 0; c < 3; c++ {
		for k := 0; k < 2; k++ {
			f, err := n.StartFlow(gpus[2*c], gpus[2*c+1], units.Bytes(int64(c+k+1))*units.GB)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, f)
		}
	}
	before := n.FillStats()
	n.SetLinkCapacity(links[2], units.GBps(2), units.GBps(2)) // degrade gpu2's link
	if got := n.FillStats().FlowsRefilled - before.FlowsRefilled; got != 2 {
		t.Errorf("degrading one component's link refilled %d flows, want 2", got)
	}
	if got := flows[2].Rate().GB(); math.Abs(got-1) > 1e-9 {
		t.Errorf("degraded flow rate %v GB/s, want 1", got)
	}
	if got := flows[0].Rate().GB(); math.Abs(got-5) > 1e-9 {
		t.Errorf("untouched flow rate %v GB/s, want 5", got)
	}
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		n.SetLinkCapacity(links[2], units.GBps(10), units.GBps(10)) // repair
		if _, err := n.StartFlowLimited(gpus[4], gpus[1], units.GB, units.GBps(1)); err != nil {
			t.Error(err)
		}
		for _, f := range flows {
			f.Done().Wait(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.FillStats()
	if checked() != st.Recomputes || st.Recomputes < 10 {
		t.Fatalf("checked %d of %d recomputes", checked(), st.Recomputes)
	}
}

// fillSizes and fillCaps are the transfer sizes and rate caps the fill
// fuzz decodes op bytes into: few and round, so equal shares and tied
// constraints are common.
var (
	fillSizes = [4]units.Bytes{0, units.MB, 4 * units.MB, 16 * units.MB}
	fillCaps  = [4]units.BytesPerSec{0, units.GBps(1), units.GBps(2.5), units.GBps(5)}
)

// runFillOps decodes ops four bytes at a time and applies them to n,
// whose every recompute is checked against the reference fill:
//
//   - kind 0: start one flow from b1 to b2, sized and capped by b3;
//   - kind 1: start a batch of two legs (b1→b2, b2→b1) with one deferred
//     recompute, as the collective steps do;
//   - kind 2: let b1 × 50µs of simulated time pass, completing flows;
//   - kind 3: set link b1's capacities from b2 and b3 (two-way links
//     only: a one-way link must keep its zero direction).
//
// Finally the run drains, and every flow's Done signal must have fired.
func runFillOps(t *testing.T, n *Network, ops []byte) {
	env := n.Env()
	nn := len(n.nodes)
	checked := WatchFillAgainstReference(t, n)
	var started []*Flow
	for ; len(ops) >= 4 && nn > 0; ops = ops[4:] {
		b1, b2, b3 := int(ops[1]), int(ops[2]), int(ops[3])
		src, dst := NodeID(b1%nn), NodeID(b2%nn)
		switch ops[0] % 4 {
		case 0:
			f, err := n.StartFlowLimited(src, dst, fillSizes[b3%4], fillCaps[b3/4%4])
			if err == nil {
				started = append(started, f)
			}
		case 1:
			legs := []TransferSpec{{src, dst, fillSizes[b3%4]}, {dst, src, fillSizes[b3/4%4]}}
			fs, _ := n.startLegs(legs, nil)
			started = append(started, fs...)
		case 2:
			if err := env.RunUntil(env.Now() + sim.Time(b1)*sim.Time(50*time.Microsecond)); err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(n.links) == 0 {
				continue
			}
			l := n.links[b1%len(n.links)]
			if l.CapAtoB > 0 && l.CapBtoA > 0 {
				n.SetLinkCapacity(l.ID, units.GBps(float64(1+b2%10)), units.GBps(float64(1+b3%10)))
			}
		}
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range started {
		if !f.done.Fired() {
			t.Fatalf("flow %d→%d never completed", f.Src, f.Dst)
		}
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after the run drained", n.ActiveFlows())
	}
	if got := n.FillStats().Recomputes; checked() != got {
		t.Fatalf("checked %d of %d recomputes", checked(), got)
	}
}

// FuzzFillMatchesReference runs a random op sequence (see runFillOps) on
// a graph decoded from the first input (see decodeGraph); its seed corpus
// is in testdata/fuzz.
func FuzzFillMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, graph, ops []byte) {
		if len(graph) > 1+3*48 || len(ops) > 4*64 {
			return
		}
		runFillOps(t, decodeGraph(graph), ops)
	})
}
