package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// referenceRoute is the plain full-graph search Route must agree with:
// Dijkstra with a linear-scan extract-min over every node, settling in
// (dist, node) order and taking a predecessor only on a strict
// improvement. It builds its own adjacency from the link list, so it
// also checks the indexes Connect maintains.
func referenceRoute(n *Network, src, dst NodeID) []dirLink {
	const inf = math.MaxInt64
	nn := len(n.nodes)
	adj := make([][]dirLink, nn)
	for _, l := range n.links {
		if l.CapAtoB > 0 {
			adj[l.A] = append(adj[l.A], dirLink{link: l, forward: true})
		}
		if l.CapBtoA > 0 {
			adj[l.B] = append(adj[l.B], dirLink{link: l, forward: false})
		}
	}
	dist := make([]int64, nn)
	prev := make([]dirLink, nn)
	hasPrev := make([]bool, nn)
	visited := make([]bool, nn)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		best, bestD := NodeID(-1), int64(inf)
		for i, d := range dist {
			if !visited[i] && d < bestD {
				best, bestD = NodeID(i), d
			}
		}
		if best == -1 || best == dst {
			break
		}
		visited[best] = true
		for _, dl := range adj[best] {
			cost := int64(dl.link.Latency) + int64(hopPenalty)
			if nd := dist[best] + cost; nd < dist[dl.to()] {
				dist[dl.to()] = nd
				prev[dl.to()] = dl
				hasPrev[dl.to()] = true
			}
		}
	}
	if !hasPrev[dst] {
		return nil
	}
	var rev []dirLink
	for at := dst; at != src; at = prev[at].from() {
		rev = append(rev, prev[at])
	}
	path := make([]dirLink, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// CheckRoute reports how Route(src, dst) differs from the reference
// search, hop by hop, or nil if it does not. Exported for the external
// tests that build fabrics through package cluster.
func CheckRoute(n *Network, src, dst NodeID) error {
	got, err := n.Route(src, dst)
	if src == dst {
		if err != nil || got != nil {
			return fmt.Errorf("route %d→%d: got %d hops, err %v; want the empty path", src, dst, len(got), err)
		}
		return nil
	}
	want := referenceRoute(n, src, dst)
	if (err != nil) != (want == nil) {
		return fmt.Errorf("route %d→%d: err %v, reference reachable=%v", src, dst, err, want != nil)
	}
	if len(got) != len(want) {
		return fmt.Errorf("route %d→%d: %d hops, reference %d", src, dst, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("route %d→%d: hop %d is link %d forward=%v, reference link %d forward=%v",
				src, dst, i, got[i].link.ID, got[i].forward, want[i].link.ID, want[i].forward)
		}
	}
	return nil
}

// checkAllRoutes compares every ordered pair of n, in a scrambled order
// so that cache and scratch state from one pair meets unrelated pairs.
func checkAllRoutes(t testing.TB, n *Network, rng *rand.Rand) {
	t.Helper()
	nn := len(n.nodes)
	for _, k := range rng.Perm(nn * nn) {
		if err := CheckRoute(n, NodeID(k/nn), NodeID(k%nn)); err != nil {
			t.Fatal(err)
		}
	}
}

// routeLatencies are few and close together, so equal-cost paths and
// (dist, node) tiebreaks are common.
var routeLatencies = [4]time.Duration{0, 10 * time.Nanosecond, 20 * time.Nanosecond, 30 * time.Nanosecond}

// decodeGraph builds a fabric of at most 16 nodes from b: the first byte
// picks the node count, then every three bytes add one link — two
// endpoint bytes, and a byte whose low two bits pick the latency and next
// two bits the direction (both ways, A→B only, B→A only). Self-links are
// skipped; repeated pairs become parallel links; nodes left without
// links are unreachable.
func decodeGraph(b []byte) *Network {
	n := NewNetwork(sim.NewEnv())
	if len(b) == 0 {
		return n
	}
	nn := 1 + int(b[0]%16)
	for i := 0; i < nn; i++ {
		n.AddNode(fmt.Sprintf("n%d", i), KindSwitch)
	}
	for b = b[1:]; len(b) >= 3; b = b[3:] {
		a, c := NodeID(int(b[0])%nn), NodeID(int(b[1])%nn)
		if a == c {
			continue
		}
		capAB, capBA := units.GBps(10), units.GBps(10)
		switch (b[2] >> 2) % 4 {
		case 1:
			capBA = 0
		case 2:
			capAB = 0
		}
		n.Connect(a, c, capAB, capBA, routeLatencies[b[2]%4], "x")
	}
	return n
}

// TestRouteMatchesReferenceOnRandomGraphs draws graphs of 0 to 24
// links: the sparse ones are mostly chains and stars whose degree-1
// endpoints take forced hops, the dense ones mostly search.
func TestRouteMatchesReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for g := 0; g < 2500; g++ {
		b := make([]byte, 1+3*rng.Intn(25))
		rng.Read(b)
		checkAllRoutes(t, decodeGraph(b), rng)
	}
}

// FuzzRouteMatchesReference checks every pair of a graph decoded from
// the input; its seed corpus is in testdata/fuzz.
func FuzzRouteMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1+3*48 {
			return
		}
		checkAllRoutes(t, decodeGraph(b), rand.New(rand.NewSource(1)))
	})
}

func TestRouteRejectsOutOfRangeNodes(t *testing.T) {
	_, n, a, b, _ := line(t)
	// Fill a dense-table entry whose slot an out-of-range pair aliases.
	if _, err := n.Route(b, a); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]NodeID{{a, 3}, {3, a}, {a, -1}, {-1, a}, {-1, -1}, {3, 3}} {
		if path, err := n.Route(p[0], p[1]); err == nil {
			t.Errorf("Route(%d, %d) = %d hops, nil error; want an error", p[0], p[1], len(path))
		}
		if lat, err := n.PathLatency(p[0], p[1]); err == nil {
			t.Errorf("PathLatency(%d, %d) = %v, nil error; want an error", p[0], p[1], lat)
		}
	}
}

func TestRouteStatsCountMissesOnly(t *testing.T) {
	_, n, a, b, c := line(t)
	for i := 0; i < 3; i++ {
		for _, p := range [][2]NodeID{{a, c}, {a, b}, {b, c}, {c, a}} {
			if _, err := n.Route(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every pair has a degree-1 endpoint hanging off b, so none searches.
	if got, want := n.RouteStats(), (RouteStats{Misses: 4}); got != want {
		t.Fatalf("RouteStats = %+v, want %+v", got, want)
	}
	d := n.AddNode("d", KindSwitch)
	n.ConnectSym(c, d, units.GBps(10), time.Microsecond, "x")
	n.ConnectSym(d, a, units.GBps(10), time.Microsecond, "x")
	if _, err := n.Route(a, c); err != nil {
		t.Fatal(err)
	}
	if got := n.RouteStats(); got.Misses != 5 || got.Searches != 1 || got.HeapPops == 0 {
		t.Fatalf("RouteStats after a core search = %+v", got)
	}
}
