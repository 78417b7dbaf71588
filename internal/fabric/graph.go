// Package fabric simulates the interconnect of the composable system: a
// graph of PCIe root complexes, PCIe switches, NVLink meshes and devices,
// with data transfers modeled as fluid flows that share link bandwidth
// max-min fairly.
//
// This flow-level model is what turns the higher-level workload models into
// the paper's observed behaviour: when eight Falcon-attached GPUs run a
// NCCL-style ring all-reduce, their flows contend on the drawer switch and
// host-adapter links and the achievable bus bandwidth drops — exactly the
// PCIe-switching overhead the paper measures in Figures 11 and 12.
//
// For reference (paper Fig. 5, citing Papaioannou et al.), the latency
// ladder this fabric spans: CPU-to-memory ~ns, GPU-to-GPU NVLink ~1-2 µs,
// GPU across a PCIe switch ~2-3 µs, storage ~100 µs. Those orders of
// magnitude come out of the link parameters in package cluster.
package fabric

import (
	"fmt"
	"math"
	"time"

	"composable/internal/units"
)

// NodeID identifies a node in the fabric graph.
type NodeID int

// NodeKind classifies fabric nodes; the fabric itself treats all nodes
// uniformly, but composition and reporting layers use the kind.
type NodeKind string

// Node kinds used by the composable system model.
const (
	KindRootComplex NodeKind = "root-complex" // host CPU PCIe root
	KindSwitch      NodeKind = "pcie-switch"  // Falcon drawer switch
	KindHostAdapter NodeKind = "host-adapter" // Falcon host port adapter card
	KindGPU         NodeKind = "gpu"
	KindNVMe        NodeKind = "nvme"
	KindNIC         NodeKind = "nic"
	KindMemory      NodeKind = "memory" // host DRAM target
)

// Node is a vertex in the fabric graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// LinkID identifies an undirected link (a pair of directed channels).
type LinkID int

// Link is a full-duplex connection between two nodes with independent
// per-direction capacities, a one-way traversal latency, and a protocol
// label (surfaced in Table IV).
type Link struct {
	ID       LinkID
	A, B     NodeID
	CapAtoB  units.BytesPerSec
	CapBtoA  units.BytesPerSec
	Latency  time.Duration
	Protocol string

	// Cumulative bytes moved in each direction, maintained continuously
	// by the flow engine; these back the Falcon port-traffic monitors
	// and Figure 12.
	bytesAtoB float64
	bytesBtoA float64
}

// BytesAtoB returns cumulative bytes moved A→B.
func (l *Link) BytesAtoB() units.Bytes { return units.Bytes(l.bytesAtoB) }

// BytesBtoA returns cumulative bytes moved B→A.
func (l *Link) BytesBtoA() units.Bytes { return units.Bytes(l.bytesBtoA) }

// dirLink is one direction of a Link.
type dirLink struct {
	link    *Link
	forward bool // true: A→B
}

func (d dirLink) capacity() float64 {
	if d.forward {
		return float64(d.link.CapAtoB)
	}
	return float64(d.link.CapBtoA)
}

func (d dirLink) addBytes(n float64) {
	if d.forward {
		d.link.bytesAtoB += n
	} else {
		d.link.bytesBtoA += n
	}
}

func (d dirLink) from() NodeID {
	if d.forward {
		return d.link.A
	}
	return d.link.B
}

func (d dirLink) to() NodeID {
	if d.forward {
		return d.link.B
	}
	return d.link.A
}

// addGraphStructures indexes a new link for routing: its usable
// directions join the adjacency lists, and both endpoints' degrees grow.
func (n *Network) addGraphStructures(l *Link) {
	toA, toB := int32(-1), int32(-1)
	if l.CapAtoB > 0 {
		n.adj[l.A] = append(n.adj[l.A], dirLink{link: l, forward: true})
		toB = int32(l.ID)
	}
	if l.CapBtoA > 0 {
		n.adj[l.B] = append(n.adj[l.B], dirLink{link: l, forward: false})
		toA = int32(l.ID)
	}
	n.deg[l.A]++
	n.deg[l.B]++
	n.into[l.A], n.into[l.B] = toA, toB
	n.routeCache, n.routes = nil, nil
}

// AddNode adds a node and returns its ID.
func (n *Network) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &Node{ID: id, Name: name, Kind: kind})
	n.adj = append(n.adj, nil)
	n.deg = append(n.deg, 0)
	n.into = append(n.into, -1)
	n.routeCache, n.routes = nil, nil
	return id
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Connect adds a full-duplex link between a and b.
func (n *Network) Connect(a, b NodeID, capAB, capBA units.BytesPerSec, latency time.Duration, protocol string) LinkID {
	if a == b {
		panic("fabric: self-link")
	}
	l := &Link{
		ID: LinkID(len(n.links)), A: a, B: b,
		CapAtoB: capAB, CapBtoA: capBA,
		Latency: latency, Protocol: protocol,
	}
	n.links = append(n.links, l)
	n.linkCons = append(n.linkCons, nil, nil)
	n.addGraphStructures(l)
	return l.ID
}

// ConnectSym adds a link with equal capacity in both directions.
func (n *Network) ConnectSym(a, b NodeID, cap units.BytesPerSec, latency time.Duration, protocol string) LinkID {
	return n.Connect(a, b, cap, cap, latency, protocol)
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// denseRouteLimit is the node count up to which the route cache is a
// dense nodes×nodes table indexed directly by (src, dst): a cache hit is
// one slice index instead of a map hash per flow start. Larger graphs
// (the 1000-GPU fleet direction) keep hits in a map to avoid a quadratic
// table. Misses run the same search at every size.
const denseRouteLimit = 256

// routeEntry is one dense-cache slot; path == nil after compute means
// dst is unreachable from src.
type routeEntry struct {
	path     []dirLink
	computed bool
}

// RouteStats counts the routing work a network has done since it was
// built. Only cache misses count: a hit costs nothing here.
type RouteStats struct {
	Misses   int // Route calls that computed a path (or its absence)
	Searches int // misses that needed a Dijkstra search of the fabric core
	HeapPops int // frontier pops across those searches
}

// RouteStats returns the routing work counters.
func (n *Network) RouteStats() RouteStats { return n.routeStats }

// Route returns the directed links on the preferred path src→dst, or an
// error if dst is unreachable or either ID names no node. Paths minimize
// total latency with a small per-hop penalty (so that, capacities being
// equal, fewer switch traversals win — matching real PCIe/NVLink route
// selection) and are cached.
//
//perf:hot
func (n *Network) Route(src, dst NodeID) ([]dirLink, error) {
	nn := len(n.nodes)
	if max(uint(src), uint(dst)) >= uint(nn) {
		return nil, n.badNodeErr(src, dst)
	}
	if src == dst {
		return nil, nil
	}
	if nn <= denseRouteLimit {
		if len(n.routes) != nn*nn {
			n.routes = make([]routeEntry, nn*nn)
		}
		e := &n.routes[int(src)*nn+int(dst)]
		if !e.computed {
			e.path = n.shortestPath(src, dst)
			e.computed = true
		}
		if e.path == nil {
			return nil, n.noPathErr(src, dst)
		}
		return e.path, nil
	}
	if n.routeCache == nil {
		//lint:allow hotalloc(one-time fallback-cache build for >256-node graphs; the steady state hits the map, not this branch)
		n.routeCache = make(map[[2]NodeID][]dirLink)
	}
	key := [2]NodeID{src, dst}
	if p, ok := n.routeCache[key]; ok {
		if p == nil {
			return nil, n.noPathErr(src, dst)
		}
		return p, nil
	}
	p := n.shortestPath(src, dst)
	n.routeCache[key] = p
	if p == nil {
		return nil, n.noPathErr(src, dst)
	}
	return p, nil
}

func (n *Network) noPathErr(src, dst NodeID) error {
	return fmt.Errorf("fabric: no path %s → %s", n.nodes[src].Name, n.nodes[dst].Name)
}

func (n *Network) badNodeErr(src, dst NodeID) error {
	return fmt.Errorf("fabric: route %d → %d: node ID out of range [0, %d)", src, dst, len(n.nodes))
}

// hopPenalty breaks ties between equal-latency paths in favor of fewer hops.
const hopPenalty = 10 * time.Nanosecond

// shortestPath computes the preferred src→dst path on a route-cache miss,
// or nil if dst is unreachable. It returns exactly the path a Dijkstra
// search over the whole graph returns — nodes settle in (dist, node)
// order and a node's predecessor changes only on a strict improvement —
// while searching only the fabric core:
//
//   - A node with one link (a chassis GPU, DRAM or NVMe endpoint) is
//     never an intermediate hop: link costs are positive, so leaving it
//     means going back over the link it was entered by. The search never
//     enqueues one.
//   - A degree-1 source's first hop and a degree-1 destination's last hop
//     are forced. Searching from the source's neighbor settles the core in
//     the same order, every distance shifted by that hop's cost; stopping
//     when the destination's neighbor settles fixes the same predecessor
//     chain the full search follows.
//
// Two endpoints on the same switch therefore need no search at all.
func (n *Network) shortestPath(src, dst NodeID) []dirLink {
	n.routeStats.Misses++
	var first, last dirLink
	from, to := src, dst
	if n.deg[src] == 1 {
		if len(n.adj[src]) == 0 {
			return nil // the only link is one-way, into src
		}
		first = n.adj[src][0]
		from = first.to()
		if from == dst {
			return []dirLink{first}
		}
	}
	if n.deg[dst] == 1 {
		id := n.into[dst]
		if id < 0 {
			return nil // the only link is one-way, out of dst
		}
		l := n.links[id]
		last = dirLink{link: l, forward: l.B == dst}
		to = last.from()
	}
	hops := 0
	if from != to {
		if !n.dijkstra(from, to) {
			return nil
		}
		for at := to; at != from; at = n.djPrev[at].from() {
			hops++
		}
	}
	if first.link != nil {
		hops++
	}
	if last.link != nil {
		hops++
	}
	path := make([]dirLink, hops)
	i := hops
	if last.link != nil {
		i--
		path[i] = last
	}
	for at := to; at != from; at = n.djPrev[at].from() {
		i--
		path[i] = n.djPrev[at]
	}
	if first.link != nil {
		path[0] = first
	}
	return path
}

// dijkstra searches from src until dst settles and reports whether it
// did; the path is then on the djPrev chain from dst. Degree-1 nodes are
// never enqueued (see shortestPath). dst itself has degree 1 only when it
// and its neighbor form an isolated pair, which src is outside of and
// cannot reach anyway. Stale heap
// entries are skipped by the dist check rather than a decrease-key: a
// node is pushed once per strict improvement, so only its last entry
// matches its final distance.
func (n *Network) dijkstra(src, dst NodeID) bool {
	n.routeStats.Searches++
	n.djReset()
	dist, prev := n.djDist, n.djPrev
	dist[src] = 0
	n.djTouched = append(n.djTouched, src)
	h := heapPush(n.djHeap[:0], heapItem{0, src})
	found := false
	for len(h) > 0 {
		var it heapItem
		h, it = heapPop(h)
		n.routeStats.HeapPops++
		if it.dist != dist[it.node] {
			continue
		}
		if it.node == dst {
			found = true
			break
		}
		for _, dl := range n.adj[it.node] {
			v := dl.to()
			if n.deg[v] == 1 {
				continue
			}
			nd := it.dist + int64(dl.link.Latency) + int64(hopPenalty)
			if nd < dist[v] {
				if dist[v] == math.MaxInt64 {
					n.djTouched = append(n.djTouched, v)
				}
				dist[v] = nd
				prev[v] = dl
				h = heapPush(h, heapItem{nd, v})
			}
		}
	}
	n.djHeap = h[:0]
	return found
}

// djReset readies the dijkstra scratch: distances are infinite except at
// the nodes the previous search touched, so only those are cleared.
// Predecessors are read only where the distance is finite and are left
// as they are.
func (n *Network) djReset() {
	if len(n.djDist) < len(n.nodes) {
		n.djDist = make([]int64, len(n.nodes))
		for i := range n.djDist {
			n.djDist[i] = math.MaxInt64
		}
		n.djPrev = make([]dirLink, len(n.nodes))
	} else {
		for _, v := range n.djTouched {
			n.djDist[v] = math.MaxInt64
		}
	}
	n.djTouched = n.djTouched[:0]
}

// heapItem is one dijkstra frontier entry.
type heapItem struct {
	dist int64
	node NodeID
}

// heapLess orders the frontier by (dist, node): among equal distances the
// lowest node index settles first, so routes are a pure function of the
// graph and never of heap layout.
func heapLess(a, b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

func heapPush(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []heapItem) ([]heapItem, heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && heapLess(h[l], h[s]) {
			s = l
		}
		if r < len(h) && heapLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
}

// PathLatency returns the one-way latency of the preferred src→dst path
// plus the per-endpoint overheads registered on the network (DMA engine
// setup, driver stack), which is what a p2p latency microbenchmark sees.
func (n *Network) PathLatency(src, dst NodeID) (time.Duration, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	total := n.EndpointOverhead
	for _, dl := range path {
		total += dl.link.Latency
	}
	return total, nil
}

// PathProtocol describes the protocol of a path: the single protocol if
// uniform, otherwise the protocol of the bottleneck (lowest-capacity) hop.
func (n *Network) PathProtocol(src, dst NodeID) (string, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return "", err
	}
	if len(path) == 0 {
		return "local", nil
	}
	proto := path[0].link.Protocol
	bottleneck := path[0]
	for _, dl := range path[1:] {
		if dl.capacity() < bottleneck.capacity() {
			bottleneck = dl
		}
		if dl.link.Protocol != proto {
			proto = bottleneck.link.Protocol
		}
	}
	return proto, nil
}

// PathBottleneck returns the minimum directed capacity along src→dst.
func (n *Network) PathBottleneck(src, dst NodeID) (units.BytesPerSec, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	best := math.MaxFloat64
	for _, dl := range path {
		if c := dl.capacity(); c < best {
			best = c
		}
	}
	if len(path) == 0 {
		return 0, nil
	}
	return units.BytesPerSec(best), nil
}
