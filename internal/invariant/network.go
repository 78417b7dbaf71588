package invariant

import (
	"math"

	"composable/internal/fabric"
	"composable/internal/sim"
	"composable/internal/units"
)

// AuditStats counts the fabric auditor's work across every network a Set
// watches. Plain fields, never registered with obs, so traces and metrics
// do not depend on them.
type AuditStats struct {
	Audits       int // auditor runs, one per allocation recompute
	LinksChecked int // link byte-counter checks across those audits
}

// AuditStats returns the fabric auditor's work counters.
func (s *Set) AuditStats() AuditStats { return s.auditStats }

// netAudit is the auditor WatchNetwork installs on one network. Its state
// is per network, so one Set can watch several fabrics without their
// LinkIDs colliding.
type netAudit struct {
	s   *Set
	net *fabric.Network
	env *sim.Env

	// links holds each link's byte-conservation state, indexed by LinkID.
	// It grows when the network gains links; a new entry is checked at the
	// audit that first sees it.
	links []linkAudit
	// busy lists the links that carried flows at the previous audit: with
	// the capacity changes, the only links whose counters or integral can
	// have moved since (see the package doc). cur collects this audit's
	// carriers; the two swap at the end of every audit.
	busy, cur []fabric.LinkID
	// audits numbers the audits; linkAudit stamps compare against it.
	audits    int
	lastAudit sim.Time
	now       sim.Time // instant of the running audit

	// The visitor callbacks, built once so an audit allocates nothing.
	visitAlloc func(l *fabric.Link, forward bool, allocated, capacity float64)
	visitFlow  func(f *fabric.Flow)
}

// linkAudit is one link's byte-conservation state.
type linkAudit struct {
	seen [2]units.Bytes // counters at the last check
	// integ is the capacity integral up to since; capa is the capacity in
	// effect from since on. The integral advances lazily, when the link is
	// checked or its capacity changes.
	integ [2]float64
	capa  [2]float64
	since sim.Time
	// checked and carried hold the number of the last audit that checked
	// the link and that found it carrying flows.
	checked, carried int
}

// WatchNetwork attaches the allocator audit to a fabric: after every
// recompute it checks per-direction capacity conservation, per-flow rate
// sanity, and the monotone growth and capacity integral of the link byte
// counters of every link whose traffic or capacity can have changed. The
// network's previous auditor, if any, is replaced.
func (s *Set) WatchNetwork(net *fabric.Network) { s.watchNetwork(net) }

func (s *Set) watchNetwork(net *fabric.Network) *netAudit {
	a := &netAudit{s: s, net: net, env: net.Env()}
	a.visitAlloc = func(l *fabric.Link, forward bool, allocated, capacity float64) {
		a.checkAllocation(l.ID, forward, allocated, capacity)
		la := &a.links[l.ID]
		if la.carried != a.audits {
			la.carried = a.audits
			a.cur = append(a.cur, l.ID)
		}
		a.check(l)
	}
	a.visitFlow = func(f *fabric.Flow) {
		a.checkFlow(f.Src, f.Dst, f.Rate(), f.MaxRate(), f.Remaining())
	}
	net.SetAuditor(a.audit)
	return a
}

// audit is the auditor body, run after every recompute.
//
//perf:hot
func (a *netAudit) audit() {
	now := a.env.Now()
	a.now = now
	a.audits++
	a.s.auditStats.Audits++

	links := a.net.Links()
	known := len(a.links)
	for _, l := range links[known:] {
		// A link new to the auditor is integrated from the previous audit
		// on at its present capacity, as a full walk over every link did.
		// No flow can have crossed it yet: a flow start audits at once.
		a.links = append(a.links, linkAudit{capa: capacities(l.CapAtoB, l.CapBtoA), since: a.lastAudit})
	}
	for _, c := range a.net.DrainCapacityChanges() {
		if int(c.Link) >= known {
			continue // new above: integrated at its present capacity
		}
		// Close the link's integral at the old capacity, then run the new
		// one from this instant.
		la := &a.links[c.Link]
		la.capa = capacities(c.OldAtoB, c.OldBtoA)
		la.integrate(now)
		l := links[c.Link]
		la.capa = capacities(l.CapAtoB, l.CapBtoA)
		a.check(l)
	}
	a.net.VisitAllocations(a.visitAlloc)
	for _, id := range a.busy {
		a.check(links[id])
	}
	for _, l := range links[known:] {
		a.check(l)
	}
	a.net.VisitFlows(a.visitFlow)

	a.busy, a.cur = a.cur, a.busy[:0]
	a.lastAudit = now
}

func capacities(ab, ba units.BytesPerSec) [2]float64 {
	return [2]float64{float64(ab), float64(ba)}
}

// integrate advances the capacity integral to now.
func (la *linkAudit) integrate(now sim.Time) {
	dt := (now - la.since).Seconds()
	la.integ[0] += la.capa[0] * dt
	la.integ[1] += la.capa[1] * dt
	la.since = now
}

// check runs the byte-counter checks on l, at most once per audit.
//
//perf:hot
func (a *netAudit) check(l *fabric.Link) {
	la := &a.links[l.ID]
	if la.checked == a.audits {
		return
	}
	la.checked = a.audits
	a.s.auditStats.LinksChecked++
	la.integrate(a.now)
	a.checkBytes(l.ID, la, l.BytesAtoB(), l.BytesBtoA())
}

// checkAllocation checks one link direction's allocated rate against its
// capacity.
//
//perf:hot
func (a *netAudit) checkAllocation(id fabric.LinkID, forward bool, allocated, capacity float64) {
	if allocated > capacity*(1+capacitySlack)+1 {
		dir := "A→B"
		if !forward {
			dir = "B→A"
		}
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/link-capacity", a.now,
			"link %d %s allocated %.1f B/s over capacity %.1f B/s", id, dir, allocated, capacity)
	}
}

// checkFlow checks one flow's rate and remaining bytes.
//
//perf:hot
func (a *netAudit) checkFlow(src, dst fabric.NodeID, rate, rateCap units.BytesPerSec, remaining units.Bytes) {
	r := float64(rate)
	if r < 0 || math.IsNaN(r) {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/flow-rate", a.now, "flow %d→%d rate %v", src, dst, rate)
	}
	if c := float64(rateCap); c > 0 && r > c*(1+capacitySlack)+1 {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/flow-rate-cap", a.now,
			"flow %d→%d rate %.1f B/s over cap %.1f B/s", src, dst, r, c)
	}
	if remaining < 0 {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/flow-remaining", a.now, "flow %d→%d remaining %v", src, dst, remaining)
	}
}

// checkBytes checks a link's counters (ab, ba) against the previous check
// and against the capacity integral, then records them as seen.
//
//perf:hot
func (a *netAudit) checkBytes(id fabric.LinkID, la *linkAudit, ab, ba units.Bytes) {
	if ab < la.seen[0] || ba < la.seen[1] {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/bytes-monotonic", a.now,
			"link %d counters went backwards: (%v,%v) after (%v,%v)", id, ab, ba, la.seen[0], la.seen[1])
	}
	la.seen = [2]units.Bytes{ab, ba}
	if maxAB := la.integ[0]*(1+capacitySlack) + 1; float64(ab) > maxAB {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/bytes-conserved", a.now,
			"link %d moved %v A→B, over the %v capacity integral", id, ab, units.Bytes(maxAB))
	}
	if maxBA := la.integ[1]*(1+capacitySlack) + 1; float64(ba) > maxBA {
		//lint:allow hotalloc(violation path only: Report formats the detail)
		a.s.Report("fabric/bytes-conserved", a.now,
			"link %d moved %v B→A, over the %v capacity integral", id, ba, units.Bytes(maxBA))
	}
}
