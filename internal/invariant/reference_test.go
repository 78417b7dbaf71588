package invariant

import (
	"math"
	"testing"
	"time"

	"composable/internal/fabric"
	"composable/internal/sim"
	"composable/internal/units"
)

// referenceAudit is the eager byte-conservation audit netAudit replaced:
// every audit walks every link, keeps per-link state in LinkID-keyed maps
// and adds each window's capacity integral at the capacity sampled at the
// previous audit. The differential tests run it beside netAudit.
type referenceAudit struct {
	s           *Set
	net         *fabric.Network
	lastAudit   sim.Time
	linkSeen    map[fabric.LinkID][2]units.Bytes
	linkCapInt  map[fabric.LinkID][2]float64
	linkPrevCap map[fabric.LinkID][2]float64
}

func newReferenceAudit(net *fabric.Network) *referenceAudit {
	return &referenceAudit{
		s:           New(),
		net:         net,
		linkSeen:    make(map[fabric.LinkID][2]units.Bytes),
		linkCapInt:  make(map[fabric.LinkID][2]float64),
		linkPrevCap: make(map[fabric.LinkID][2]float64),
	}
}

func (r *referenceAudit) audit() {
	now := r.net.Env().Now()
	dt := (now - r.lastAudit).Seconds()
	r.lastAudit = now
	for _, l := range r.net.Links() {
		ab, ba := l.BytesAtoB(), l.BytesBtoA()
		prev := r.linkSeen[l.ID]
		if ab < prev[0] || ba < prev[1] {
			r.s.Report("fabric/bytes-monotonic", now,
				"link %d counters went backwards: (%v,%v) after (%v,%v)", l.ID, ab, ba, prev[0], prev[1])
		}
		r.linkSeen[l.ID] = [2]units.Bytes{ab, ba}

		cap := r.linkPrevCap[l.ID] // capacity in effect during the window
		if _, seen := r.linkPrevCap[l.ID]; !seen {
			cap = [2]float64{float64(l.CapAtoB), float64(l.CapBtoA)}
		}
		integ := r.linkCapInt[l.ID]
		integ[0] += cap[0] * dt
		integ[1] += cap[1] * dt
		r.linkCapInt[l.ID] = integ
		r.linkPrevCap[l.ID] = [2]float64{float64(l.CapAtoB), float64(l.CapBtoA)}

		if maxAB := integ[0]*(1+capacitySlack) + 1; float64(ab) > maxAB {
			r.s.Report("fabric/bytes-conserved", now,
				"link %d moved %v A→B, over the %v capacity integral", l.ID, ab, units.Bytes(maxAB))
		}
		if maxBA := integ[1]*(1+capacitySlack) + 1; float64(ba) > maxBA {
			r.s.Report("fabric/bytes-conserved", now,
				"link %d moved %v B→A, over the %v capacity integral", l.ID, ba, units.Bytes(maxBA))
		}
	}
}

// integralTolerance is the relative gap allowed between a lazily
// integrated capacity integral and the window-by-window reference sum.
const integralTolerance = 1e-9

// maxDiffErrors caps the mismatches one differential run reports.
const maxDiffErrors = 10

// watchNetworkAgainstReference watches net for s and runs referenceAudit
// beside every audit. At each audit it asserts that every link whose
// counters moved since the previous audit was checked, and that every
// checked link's capacity integral matches the reference. It returns the
// auditor and the reference's own Set, which collects the reference's
// violations.
func watchNetworkAgainstReference(t testing.TB, s *Set, net *fabric.Network) (*netAudit, *Set) {
	a := s.watchNetwork(net)
	ref := newReferenceAudit(net)
	errs := 0
	errorf := func(format string, args ...any) {
		if errs++; errs <= maxDiffErrors {
			t.Errorf(format, args...)
		}
	}
	net.SetAuditor(func() {
		a.audit()
		now := net.Env().Now()
		for _, l := range net.Links() {
			prev := ref.linkSeen[l.ID]
			if (l.BytesAtoB() != prev[0] || l.BytesBtoA() != prev[1]) && a.links[l.ID].checked != a.audits {
				errorf("t=%v audit %d: link %d moved (%v,%v) after (%v,%v) but was not checked",
					time.Duration(now), a.audits, l.ID, l.BytesAtoB(), l.BytesBtoA(), prev[0], prev[1])
			}
		}
		ref.audit()
		for id := range a.links {
			la := &a.links[id]
			if la.checked != a.audits {
				continue
			}
			want := ref.linkCapInt[fabric.LinkID(id)]
			for d := range want {
				if math.Abs(la.integ[d]-want[d]) > integralTolerance*math.Max(math.Abs(la.integ[d]), math.Abs(want[d])) {
					errorf("t=%v audit %d: link %d direction %d capacity integral %v, reference %v",
						time.Duration(now), a.audits, id, d, la.integ[d], want[d])
				}
			}
		}
	})
	return a, ref.s
}

// TestAuditMatchesReferenceAcrossIdleDegradeRepair degrades a link while
// it is idle, repairs it, and only then sends traffic over it. The lazy
// integral must still cover the degraded interval at the degraded
// capacity: integrating the whole idle stretch at the capacity present
// when the link is next used would be looser than the reference.
func TestAuditMatchesReferenceAcrossIdleDegradeRepair(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	sw := net.AddNode("sw", fabric.KindSwitch)
	b := net.AddNode("b", fabric.KindGPU)
	net.ConnectSym(a, sw, units.GBps(10), time.Microsecond, "pcie")
	idle := net.ConnectSym(sw, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	audit, ref := watchNetworkAgainstReference(t, s, net)
	var degraded time.Duration
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, sw, 100*units.MB); err != nil {
			panic(err)
		}
		net.SetLinkCapacity(idle, units.MBps(100), units.MBps(100)) // degrade ×100
		from := env.Now()
		if err := net.Transfer(p, a, sw, 500*units.MB); err != nil {
			panic(err)
		}
		net.SetLinkCapacity(idle, units.GBps(10), units.GBps(10)) // repair
		degraded = time.Duration(env.Now() - from)
		if err := net.Transfer(p, a, sw, 100*units.MB); err != nil {
			panic(err)
		}
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Err(); err != nil {
		t.Fatalf("reference audit: %v", err)
	}
	la := audit.links[idle]
	if degraded <= 0 || la.since == 0 {
		t.Fatalf("degraded for %v, link last integrated at %v", degraded, la.since)
	}
	full, low := float64(units.GBps(10)), float64(units.MBps(100))
	want := full*(time.Duration(la.since)-degraded).Seconds() + low*degraded.Seconds()
	if got := la.integ[0]; math.Abs(got-want) > integralTolerance*want {
		t.Errorf("idle link's capacity integral = %v, want %v (%v of it degraded)", got, want, degraded)
	}
}
