package fabric_test

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/faults"
	"composable/internal/orchestrator"
	"composable/internal/perfbench"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// TestFillMatchesReferenceOnScenarios runs seeded fault scenarios and
// chaossim -pod scenarios with every recompute's rates checked bit for
// bit against the global reference fill. The fault plans degrade and
// repair slot, host and spine links mid-run. Each run repeats
// scengen.RunFaultyFleet from the same public calls, with the fill check
// as the fabric's auditor, and must end with RunFaultyFleet's fingerprint.
func TestFillMatchesReferenceOnScenarios(t *testing.T) {
	var scs []scengen.FaultScenario
	for seed := int64(1); seed <= 12; seed++ {
		scs = append(scs, scengen.SanitizeFaults(scengen.FaultsFromSeed(seed)))
		fleet := scengen.PodFleetFromSeed(seed)
		scs = append(scs, scengen.SanitizeFaults(scengen.FaultScenario{Fleet: fleet, Plan: scengen.PlanForFleet(seed, fleet)}))
	}
	linkFaults := 0
	for _, sc := range scs {
		for _, ev := range sc.Plan.Events {
			switch ev.Kind {
			case faults.KindSlotLink, faults.KindHostLink, faults.KindSpineLink:
				linkFaults++
			}
		}
		t.Run(sc.ID(), func(t *testing.T) {
			want, err := scengen.RunFaultyFleet(sc)
			if err != nil {
				t.Fatal(err)
			}
			f, err := cluster.ComposeFleet(sim.NewEnv(), cluster.FleetOptions{
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
			checked := fabric.WatchFillAgainstReference(t, f.Net)
			plan := sc.Plan
			res, err := orchestrator.Run(f, sc.Fleet.Jobs, orchestrator.Options{
				Policy:        pol,
				AttachLatency: sc.Fleet.AttachLatency,
				Faults:        &plan,
				MaxRetries:    sc.MaxRetries,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint() != want.Fingerprint {
				t.Errorf("fingerprint differs from RunFaultyFleet's:\n%s\nwant\n%s", res.Fingerprint(), want.Fingerprint)
			}
			if got, want := checked(), f.Net.FillStats().Recomputes; got != want || got == 0 {
				t.Fatalf("checked %d of %d recomputes", got, want)
			}
		})
	}
	if linkFaults == 0 {
		t.Error("no scenario degrades a link")
	}
}

// TestFillMatchesReferenceOnPodSchedule checks every recompute of the
// 1024-GPU orchestrator/pod-schedule run.
func TestFillMatchesReferenceOnPodSchedule(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), perfbench.PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	checked := fabric.WatchFillAgainstReference(t, fleet.Net)
	if _, err := orchestrator.Run(fleet, perfbench.PodBenchStream(), orchestrator.Options{Policy: orchestrator.DrawerLocal{}}); err != nil {
		t.Fatal(err)
	}
	if got, want := checked(), fleet.Net.FillStats().Recomputes; got != want || got == 0 {
		t.Fatalf("checked %d of %d recomputes", got, want)
	}
}
