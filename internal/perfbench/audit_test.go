package perfbench

import (
	"io"
	"testing"

	"composable/internal/fleetcli"
	"composable/internal/invariant"
	"composable/internal/scengen"
)

// chaosPodAuditWork is the fabric auditor's work over one `chaossim -seed
// 1 -pod` run: audits (one per allocation recompute) and link checks. An
// auditor that walked all 105 links at every audit would make 479,430
// checks. Like the route counters, the counts are a pure function of the
// code and the fixed scenario, so they gate the same on any machine.
var chaosPodAuditWork = invariant.AuditStats{Audits: 4566, LinksChecked: 75589}

func TestChaosPodAuditWork(t *testing.T) {
	c := fleetcli.New("chaossim", io.Discard, io.Discard)
	c.ScenarioFlags("")
	if !c.Parse([]string{"-seed", "1", "-pod"}) {
		t.Fatal("flags rejected")
	}
	out, err := scengen.RunFaultyFleet(c.FaultScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if got := out.Inv.AuditStats(); got != chaosPodAuditWork {
		t.Errorf("chaossim -seed 1 -pod auditor work = %+v, want %+v", got, chaosPodAuditWork)
	}
}
