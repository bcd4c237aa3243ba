package routing

import (
	"sort"

	"openoptics/internal/core"
)

// This file materializes routing() for TA architectures, which route within
// one topology instance (§2.2): direct-circuit, ECMP, WCMP, and k-shortest
// path. Paths carry wildcard time fields, so they compile into classic
// flow-table entries (Fig. 3 c).

// staticGraph is the adjacency view of one topology instance: the circuits
// visible in slice ts (WildcardSlice = static circuits only).
type staticGraph struct {
	ix *core.ConnIndex
	ts core.Slice
}

func (g staticGraph) neighbors(n core.NodeID) []core.NodeID { return g.ix.Neighbors(n, g.ts) }

// parallel returns the number of parallel circuits between a and b in the
// instance — the link capacity WCMP weights by.
func (g staticGraph) parallel(a, b core.NodeID) int {
	cnt := 0
	for _, c := range g.ix.Circuits(a, g.ts) {
		if p, _, ok := c.Other(a); ok && p == b {
			cnt++
		}
	}
	return cnt
}

func (g staticGraph) egress(a, b core.NodeID) (core.PortID, bool) {
	return g.ix.EgressPort(a, b, g.ts)
}

// bfsDist returns hop distances from src over the instance graph.
func (g staticGraph) bfsDist(src core.NodeID) map[core.NodeID]int {
	dist := map[core.NodeID]int{src: 0}
	queue := []core.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.neighbors(u) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// shortestPaths enumerates up to maxPaths shortest paths from src to dst in
// the instance graph as node sequences.
func (g staticGraph) shortestPaths(src, dst core.NodeID, maxPaths int) [][]core.NodeID {
	dist := g.bfsDist(src)
	dd, ok := dist[dst]
	if !ok {
		return nil
	}
	// Backward DFS along strictly-decreasing distance.
	var out [][]core.NodeID
	var walk func(cur core.NodeID, suffix []core.NodeID)
	walk = func(cur core.NodeID, suffix []core.NodeID) {
		if len(out) >= maxPaths {
			return
		}
		if cur == src {
			seq := make([]core.NodeID, 0, len(suffix)+1)
			seq = append(seq, src)
			for i := len(suffix) - 1; i >= 0; i-- {
				seq = append(seq, suffix[i])
			}
			out = append(out, seq)
			return
		}
		for _, p := range g.neighbors(cur) {
			if dp, ok := dist[p]; ok && dp == dist[cur]-1 {
				walk(p, append(suffix, cur))
			}
		}
	}
	_ = dd
	walk(dst, nil)
	return out
}

// pathFromNodes converts a node sequence into a core.Path with wildcard (TA)
// or fixed-slice (per-instance TO) time fields.
func pathFromNodes(g staticGraph, seq []core.NodeID, ts core.Slice, weight float64) (core.Path, bool) {
	hops := make([]core.Hop, 0, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		eg, ok := g.egress(seq[i], seq[i+1])
		if !ok {
			return core.Path{}, false
		}
		dep := core.WildcardSlice
		if !ts.IsWildcard() {
			dep = ts
		}
		hops = append(hops, core.Hop{Node: seq[i], Egress: eg, DepSlice: dep})
	}
	return core.Path{Src: seq[0], Dst: seq[len(seq)-1], TS: ts, Hops: hops, Weight: weight}, true
}

// Direct materializes direct-circuit routing. On a static instance it
// returns only one-hop paths over existing circuits; on a TO schedule it
// returns, per arrival slice, the single-hop path over the earliest direct
// circuit (Fig. 3 a) — the packet waits at the source.
func Direct(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	if numSlices <= 1 {
		g := staticGraph{ix: ix, ts: core.WildcardSlice}
		return AllPairs(ix, func(s, d core.NodeID) []core.Path {
			eg, ok := g.egress(s, d)
			if !ok {
				return nil
			}
			return []core.Path{{Src: s, Dst: d, TS: core.WildcardSlice, Weight: 1,
				Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: core.WildcardSlice}}}}
		})
	}
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			if dep, eg, ok := ix.EarliestDirect(s, d, core.Slice(ts)); ok {
				out = append(out, core.Path{Src: s, Dst: d, TS: core.Slice(ts), Weight: 1,
					Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: dep}}})
			}
		}
		return out
	})
}

// ECMP materializes equal-cost multipath over one topology instance: all
// shortest paths (up to MaxPaths), equal weights.
func ECMP(ix *core.ConnIndex, opt Options) []core.Path {
	g := staticGraph{ix: ix, ts: core.WildcardSlice}
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		seqs := g.shortestPaths(s, d, opt.maxPaths())
		var out []core.Path
		for _, seq := range seqs {
			if p, ok := pathFromNodes(g, seq, core.WildcardSlice, 1); ok {
				out = append(out, p)
			}
		}
		sortPaths(out)
		return out
	})
}

// WCMP materializes weighted-cost multipath (Jupiter): the equal-cost
// shortest paths are weighted by their bottleneck capacity — the minimum
// number of parallel circuits along the path — so fat paths carry
// proportionally more traffic.
func WCMP(ix *core.ConnIndex, opt Options) []core.Path {
	g := staticGraph{ix: ix, ts: core.WildcardSlice}
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		seqs := g.shortestPaths(s, d, opt.maxPaths())
		var out []core.Path
		for _, seq := range seqs {
			bottleneck := 1 << 30
			for i := 0; i+1 < len(seq); i++ {
				if c := g.parallel(seq[i], seq[i+1]); c < bottleneck {
					bottleneck = c
				}
			}
			if p, ok := pathFromNodes(g, seq, core.WildcardSlice, float64(bottleneck)); ok {
				out = append(out, p)
			}
		}
		sortPaths(out)
		return out
	})
}

// KSP materializes k-shortest-path routing (Flat-tree style) using Yen's
// algorithm over the topology instance. Unlike ECMP it also returns paths
// longer than the shortest, which keeps irregular topologies well utilized.
func KSP(ix *core.ConnIndex, k int, opt Options) []core.Path {
	if k < 1 {
		k = 1
	}
	g := staticGraph{ix: ix, ts: core.WildcardSlice}
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		seqs := yen(g, s, d, k)
		var out []core.Path
		for _, seq := range seqs {
			if p, ok := pathFromNodes(g, seq, core.WildcardSlice, 1); ok {
				out = append(out, p)
			}
		}
		return out
	})
}

// yen computes up to k loopless shortest paths (by hop count) from s to d.
func yen(g staticGraph, s, d core.NodeID, k int) [][]core.NodeID {
	first := g.shortestPaths(s, d, 1)
	if len(first) == 0 {
		return nil
	}
	paths := [][]core.NodeID{first[0]}
	var candidates [][]core.NodeID
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			rootPath := prev[:i+1]
			banned := make(map[[2]core.NodeID]bool)
			for _, p := range paths {
				if len(p) > i && eqSeq(p[:i+1], rootPath) {
					banned[[2]core.NodeID{p[i], p[i+1]}] = true
				}
			}
			exclude := make(map[core.NodeID]bool)
			for _, n := range rootPath[:len(rootPath)-1] {
				exclude[n] = true
			}
			spurPath := bfsRestricted(g, spur, d, banned, exclude)
			if spurPath == nil {
				continue
			}
			total := append(append([]core.NodeID{}, rootPath[:len(rootPath)-1]...), spurPath...)
			dup := false
			for _, p := range append(paths, candidates...) {
				if eqSeq(p, total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			if len(candidates[i]) != len(candidates[j]) {
				return len(candidates[i]) < len(candidates[j])
			}
			return seqKey(candidates[i]) < seqKey(candidates[j])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func eqSeq(a, b []core.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqKey(s []core.NodeID) string {
	k := ""
	for _, n := range s {
		k += string(rune(n)) + ","
	}
	return k
}

// bfsRestricted finds a shortest path from s to d avoiding banned edges and
// excluded nodes; returns the node sequence or nil.
func bfsRestricted(g staticGraph, s, d core.NodeID, banned map[[2]core.NodeID]bool, exclude map[core.NodeID]bool) []core.NodeID {
	prev := map[core.NodeID]core.NodeID{s: s}
	queue := []core.NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == d {
			var seq []core.NodeID
			for x := d; ; x = prev[x] {
				seq = append([]core.NodeID{x}, seq...)
				if x == s {
					break
				}
			}
			return seq
		}
		for _, v := range g.neighbors(u) {
			if exclude[v] || banned[[2]core.NodeID{u, v}] {
				continue
			}
			if _, ok := prev[v]; !ok {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}
