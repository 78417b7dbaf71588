package perfbench

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/orchestrator"
	"composable/internal/sim"
)

// podScheduleRouteWork is the routing work of one orchestrator/pod-schedule
// run: route-cache misses, the misses that searched the fabric core (the
// rest had both endpoints on one switch), and frontier pops. The counts
// are a pure function of the code and the fixed workload, so unlike a
// timing they gate the same on any machine.
var podScheduleRouteWork = fabric.RouteStats{Misses: 4404, Searches: 2296, HeapPops: 132895}

func TestPodScheduleRouteWork(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orchestrator.Run(fleet, PodBenchStream(), orchestrator.Options{Policy: orchestrator.DrawerLocal{}}); err != nil {
		t.Fatal(err)
	}
	if got := fleet.Net.RouteStats(); got != podScheduleRouteWork {
		t.Errorf("pod-schedule routing work = %+v, want %+v", got, podScheduleRouteWork)
	}
	// Every pair the run routed is now a hit in the large-graph cache.
	gpu := fleet.Slots[0].Node
	far := fleet.Slots[len(fleet.Slots)-1].Node
	if _, err := fleet.Net.Route(gpu, far); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = fleet.Net.Route(gpu, far) }); a != 0 {
		t.Errorf("warm Route on the pod fleet allocates %v times, want 0", a)
	}
}

// podScheduleFillWork is the max-min fill work of the same run. Each
// recompute refills only the components its change touched: 4.8 flows,
// 3.3 rounds and 74 constraint visits per recompute, where a fill of
// every active flow did 21.0, 14.9 and 364.
var podScheduleFillWork = fabric.FillStats{Recomputes: 39753, Rounds: 132603, ConstraintVisits: 2947576, FlowsRefilled: 189300}

func TestPodScheduleFillWork(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orchestrator.Run(fleet, PodBenchStream(), orchestrator.Options{Policy: orchestrator.DrawerLocal{}}); err != nil {
		t.Fatal(err)
	}
	if got := fleet.Net.FillStats(); got != podScheduleFillWork {
		t.Errorf("pod-schedule fill work = %+v, want %+v", got, podScheduleFillWork)
	}
}

// TestRouteMissAllocatesOnce checks the route cache's allocation contract
// on a Falcon system (the dense-table cache): a hit allocates nothing and
// a miss allocates exactly its path, for every pair.
func TestRouteMissAllocatesOnce(t *testing.T) {
	sys, err := cluster.Compose(sim.NewEnv(), cluster.Config{Name: "full", LocalGPUs: 8, FalconGPUs: 8, Storage: cluster.StorageFalconNVMe})
	if err != nil {
		t.Fatal(err)
	}
	net := sys.Net
	nn := len(net.Nodes())
	var pairs [][2]fabric.NodeID
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			if src != dst {
				pairs = append(pairs, [2]fabric.NodeID{fabric.NodeID(src), fabric.NodeID(dst)})
			}
		}
	}
	// Route every pair once to size the search scratch, then add a node:
	// that empties the cache. The first route after it rebuilds the table
	// and the first search regrows the scratch for the extra node; every
	// later miss has only its path to allocate.
	for _, p := range pairs {
		if _, err := net.Route(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.AddNode("spare", fabric.KindNIC)
	next := 0
	for searches := net.RouteStats().Searches; net.RouteStats().Searches == searches; next++ {
		if _, err := net.Route(pairs[next][0], pairs[next][1]); err != nil {
			t.Fatal(err)
		}
	}
	hit := pairs[0]
	if a := testing.AllocsPerRun(100, func() { _, _ = net.Route(hit[0], hit[1]) }); a != 0 {
		t.Errorf("warm Route allocates %v times, want 0", a)
	}
	// AllocsPerRun(1, f) calls f twice and measures only the second call:
	// the first routes a cached pair, the second the next unseen one.
	calls := 0
	route := func() {
		calls++
		p := hit
		if calls%2 == 0 {
			p = pairs[next]
		}
		if _, err := net.Route(p[0], p[1]); err != nil {
			t.Error(err)
		}
	}
	for ; next < len(pairs); next++ {
		if a := testing.AllocsPerRun(1, route); a != 1 {
			t.Fatalf("cold Route(%d, %d) allocates %v times, want 1", pairs[next][0], pairs[next][1], a)
		}
	}
	if s := net.RouteStats(); s.Searches == 0 || s.Searches == s.Misses {
		t.Errorf("RouteStats = %+v: want misses both with and without a core search", s)
	}
}
