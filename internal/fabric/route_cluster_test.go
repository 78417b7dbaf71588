package fabric_test

import (
	"math/rand"
	"testing"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/perfbench"
	"composable/internal/sim"
)

// TestRouteMatchesReferenceOnFalconSystem checks every pair of a full
// Falcon system: eight local GPUs on the NVLink cube mesh plus eight
// chassis GPUs, whose equal-latency alternatives exercise the tiebreaks.
func TestRouteMatchesReferenceOnFalconSystem(t *testing.T) {
	sys, err := cluster.Compose(sim.NewEnv(), cluster.Config{Name: "full", LocalGPUs: 8, FalconGPUs: 8, Storage: cluster.StorageFalconNVMe})
	if err != nil {
		t.Fatal(err)
	}
	checkEveryPair(t, sys.Net)
}

func TestRouteMatchesReferenceOnTwoChassisFleet(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), cluster.FleetOptions{
		Hosts: 2, GPUs: 16, Pods: 2, ChassisPerPod: 1, Oversubscription: 4, Preattach: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEveryPair(t, fleet.Net)
}

// TestRouteMatchesReferenceOnPodFleet samples pairs of the 1024-GPU
// pod-schedule fleet: random pairs, which mostly cross chassis and
// search the core, and pairs a few node IDs apart, which mostly share a
// switch and take forced hops only.
func TestRouteMatchesReferenceOnPodFleet(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), perfbench.PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	nn := len(fleet.Net.Nodes())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		src, dst := rng.Intn(nn), rng.Intn(nn)
		if i%2 == 1 {
			dst = (src + 1 + rng.Intn(8)) % nn
		}
		if err := fabric.CheckRoute(fleet.Net, fabric.NodeID(src), fabric.NodeID(dst)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkEveryPair(t *testing.T, n *fabric.Network) {
	t.Helper()
	nn := len(n.Nodes())
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			if err := fabric.CheckRoute(n, fabric.NodeID(src), fabric.NodeID(dst)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
