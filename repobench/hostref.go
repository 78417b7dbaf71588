package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// The benchmark box shares its cores' execution units and its memory
// system with other tenants, whose load comes and goes over seconds to
// hours. Under it, the simulator's ops run up to about 2.5× slower. Raw
// host time mostly measures the neighbours.
//
// hostRef corrects for that. Between ops, at least every refEvery, it
// times refWork: a fixed computation owned by the benchmark, which no
// change to the program can speed up or slow down. A host time measured
// at instant t is reported as
//
//	raw × refNominal / median(refWork times within refWindow of t)
//
// that is, in seconds of a host on which refWork takes refNominal. Under
// load both the op and refWork slow, though not by exactly the same
// factor. Over 10 minutes of interleaved ops while the load came and
// went, 20 s window medians of raw op time varied by a factor of 1.53
// (pod-fleet), 1.67 (a batch of fleet-chaos scenarios) and 1.90
// (paper-suite); corrected, by 1.23, 1.20 and 1.21. The raw medians are
// printed next to the corrected ones.
type hostRef struct {
	start time.Time
	last  time.Time
	// at is each sample's midpoint, in seconds since start; took its
	// refWork time in seconds.
	at, took []float64
}

const (
	// refEvery is the longest gap between two samples during a run.
	refEvery = 400 * time.Millisecond
	// refWindow is the half-width of the window a correction's median
	// is taken over; refMinSamples the fewest samples it uses (the
	// nearest ones, when the window holds fewer).
	refWindow     = 3 * time.Second
	refMinSamples = 5
	// refNominal is about refWork's time on the 2-CPU Xeon (Sapphire
	// Rapids) benchmark box while no neighbour loads it.
	refNominal = 40 * time.Millisecond
)

func newHostRef() *hostRef { return &hostRef{start: time.Now()} }

// sample times one refWork, after a collection so every sample starts
// from the same heap.
func (h *hostRef) sample() {
	runtime.GC()
	t0 := time.Now()
	refSink += refWork()
	d := time.Since(t0)
	h.at = append(h.at, h.since(t0)+d.Seconds()/2)
	h.took = append(h.took, d.Seconds())
	h.last = time.Now()
}

// tick samples if the last sample is refEvery old.
func (h *hostRef) tick() {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
}

func (h *hostRef) since(t time.Time) float64 { return t.Sub(h.start).Seconds() }

// slowdown is how much slower than nominal the host ran refWork around
// instant at (seconds since start).
func (h *hostRef) slowdown(at float64) float64 {
	type near struct{ dist, took float64 }
	ns := make([]near, len(h.took))
	for i := range h.took {
		ns[i] = near{math.Abs(h.at[i] - at), h.took[i]}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].dist < ns[j].dist })
	var xs []float64
	for _, n := range ns {
		if len(xs) >= refMinSamples && n.dist > refWindow.Seconds() {
			break
		}
		xs = append(xs, n.took)
	}
	return median(xs) / refNominal.Seconds()
}

// correct converts a raw host time measured around instant at into
// seconds at nominal host speed.
func (h *hostRef) correct(at float64, raw time.Duration) float64 {
	return raw.Seconds() / h.slowdown(at)
}

// refSink keeps refWork's result alive.
var refSink uint64

// refWork is the reference computation. Its inputs are fixed, so its
// work is the same on every call. Neighbours slow this box in two ways,
// which hit the workloads in different proportions: they contend for the
// memory system, which slows refList, and for the core's execution units,
// which slows refWide while a single dependency chain does not slow at
// all. The two halves take about the same time on the quiet box, so
// refWork's slowdown is the mean of theirs.
func refWork() uint64 { return refList() + refWide() }

// refNode is refList's heap node, about the size of a simulator event or
// flow record.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refList allocates a linked list of 100,000 heap nodes in pseudo-random
// key order, indexes a quarter of them in a map, walks the list and sorts
// the keys.
func refList() uint64 {
	const n = 100_000
	idx := make(map[uint64]*refNode, 1024)
	var head *refNode
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		head = &refNode{key: x >> 33, next: head}
		idx[head.key%(n/4)] = head
	}
	keys := make([]uint64, 0, n)
	for nd := head; nd != nil; nd = nd.next {
		keys = append(keys, nd.key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return uint64(len(idx)) + keys[n/2]
}

// refWide keeps the execution units busy from registers and L1: eight
// independent xorshift chains, then four independent multiply-add
// chains over a 16 KiB array.
func refWide() uint64 {
	var a [8]uint64
	for k := range a {
		a[k] = uint64(k*7919 + 1)
	}
	for i := 0; i < 2_000_000; i++ {
		for k := range a {
			a[k] ^= a[k] << 13
			a[k] ^= a[k] >> 7
			a[k] ^= a[k] << 17
		}
	}
	v := make([]float64, 2048)
	for i := range v {
		v[i] = float64(i) + 0.5
	}
	var s [4]float64
	for r := 0; r < 1500; r++ {
		for i := 0; i+3 < len(v); i += 4 {
			s[0] += v[i] * 1.0000001
			s[1] += v[i+1] * 0.9999999
			s[2] += v[i+2] * 1.0000002
			s[3] += v[i+3] * 0.9999998
		}
	}
	return a[0] + a[7] + uint64(s[0]+s[1]+s[2]+s[3])
}
