package invariant_test

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/invariant"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// TestAuditMatchesReferenceOnScenarios runs seeded fault scenarios and
// chaossim -pod scenarios with the fabric auditor checked against the
// eager reference audit at every audit (see watchNetworkAgainstReference).
// Each run repeats scengen.RunFaultyFleet from the same public calls,
// with the differential watch in place of WatchNetwork, and must end with
// RunFaultyFleet's fingerprint.
func TestAuditMatchesReferenceOnScenarios(t *testing.T) {
	var scs []scengen.FaultScenario
	for seed := int64(1); seed <= 12; seed++ {
		scs = append(scs, scengen.SanitizeFaults(scengen.FaultsFromSeed(seed)))
		fleet := scengen.PodFleetFromSeed(seed)
		scs = append(scs, scengen.SanitizeFaults(scengen.FaultScenario{Fleet: fleet, Plan: scengen.PlanForFleet(seed, fleet)}))
	}
	for _, sc := range scs {
		t.Run(sc.ID(), func(t *testing.T) {
			want, err := scengen.RunFaultyFleet(sc)
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv()
			f, err := cluster.ComposeFleet(env, cluster.FleetOptions{
				Hosts: sc.Fleet.Hosts, GPUs: sc.Fleet.GPUs, Preattach: sc.Fleet.Preattach,
				Pods: sc.Fleet.Pods, ChassisPerPod: sc.Fleet.ChassisPerPod,
				Oversubscription: sc.Fleet.Oversubscription,
			})
			if err != nil {
				t.Fatal(err)
			}
			pol, err := orchestrator.PolicyByName(sc.Fleet.Policy)
			if err != nil {
				t.Fatal(err)
			}
			inv := invariant.New()
			inv.WatchEnv(env)
			ref := invariant.WatchNetworkAgainstReference(t, inv, f.Net)
			inv.WatchFleet(f)
			plan := sc.Plan
			res, err := orchestrator.Run(f, sc.Fleet.Jobs, orchestrator.Options{
				Policy:        pol,
				AttachLatency: sc.Fleet.AttachLatency,
				Probe:         inv.OrchestratorProbe(),
				Faults:        &plan,
				MaxRetries:    sc.MaxRetries,
			})
			if err != nil {
				t.Fatal(err)
			}
			inv.CheckFleetResult(f, res)
			if err := inv.Err(); err != nil {
				t.Error(err)
			}
			if err := ref.Err(); err != nil {
				t.Errorf("reference audit: %v", err)
			}
			if res.Fingerprint() != want.Fingerprint {
				t.Errorf("fingerprint differs from RunFaultyFleet's:\n%s\nwant\n%s", res.Fingerprint(), want.Fingerprint)
			}
			st := inv.AuditStats()
			if st.Audits == 0 || st.LinksChecked == 0 {
				t.Fatalf("audit stats %+v: the auditor never ran", st)
			}
		})
	}
}
