package routing

import (
	"openoptics/internal/core"
)

// This file materializes routing() for TO architectures, which route across
// time slices (§2.2): VLB (RotorNet, Sirius), Opera's always-available
// expander paths, UCMP's uniform-cost multipath, and HOHO's hop-on/hop-off
// latency-optimal single path.

// VLB materializes Valiant load balancing on a TO schedule (RotorNet,
// Sirius): a packet arriving at src in slice ts is sprayed over all
// circuits live in that slice (phase 1); the intermediate node buffers it
// until its earliest direct circuit to dst (phase 2). A live direct circuit
// to dst is used as a one-hop path. Deploy with per-packet multipath to get
// RotorNet's packet spraying.
func VLB(ix *core.ConnIndex, opt Options) []core.Path {
	nodes := ix.Nodes()
	numSlices := ix.NumSlices()
	// Every circuit live at a source yields at most one path per
	// destination, so this bounds the output and sizes it once.
	bound := 0
	for si := range nodes {
		for ts := 0; ts < numSlices; ts++ {
			bound += len(ix.Links(si, core.Slice(ts)))
		}
	}
	out := make([]core.Path, 0, bound*(len(nodes)-1))
	// Paths carve their hops from one array of at most two hops each.
	arena := make([]core.Hop, 0, 2*cap(out))
	hops := func(h ...core.Hop) []core.Hop {
		lo := len(arena)
		arena = append(arena, h...)
		return arena[lo:len(arena):len(arena)]
	}
	var sorter pathSorter
	for si, s := range nodes {
		for di, d := range nodes {
			if si == di {
				continue
			}
			first := len(out)
			for ts := 0; ts < numSlices; ts++ {
				arr := core.Slice(ts)
				for _, l := range ix.Links(si, arr) {
					if int(l.Peer) == di {
						out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
							Hops: hops(core.Hop{Node: s, Egress: l.Egress, DepSlice: arr})})
						continue
					}
					// Phase 2: earliest direct circuit peer->d at or after ts.
					dep, eg2, ok := ix.EarliestDirectAt(int(l.Peer), di, arr)
					if !ok {
						continue
					}
					out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
						Hops: hops(
							core.Hop{Node: s, Egress: l.Egress, DepSlice: arr},
							core.Hop{Node: nodes[l.Peer], Egress: eg2, DepSlice: dep},
						)})
				}
			}
			sorter.sort(out[first:])
		}
	}
	return out
}

// Opera materializes Opera's routing: every slice topology is a k-regular
// expander, so a multi-hop path confined to the *current* slice is always
// available — packets never wait for a circuit. Paths are per-slice
// shortest paths with every hop departing in the arrival slice. If a slice
// graph is disconnected (non-expander schedules), the earliest-path search
// is the fallback so deployment still covers every pair.
func Opera(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			arr := core.Slice(ts)
			g := staticGraph{ix: ix, ts: arr}
			seqs := g.shortestPaths(s, d, opt.maxPaths())
			if len(seqs) == 0 {
				out = append(out, EarliestPaths(ix, s, d, arr, opt)...)
				continue
			}
			for _, seq := range seqs {
				if p, ok := pathFromNodes(g, seq, arr, 1); ok {
					out = append(out, p)
				}
			}
		}
		sortPaths(out)
		return out
	})
}

// UCMP materializes uniform-cost multipath: all minimal-delivery-time paths
// (up to MaxPaths) per (src, dst, arrival slice), each weighted uniformly.
// Spreading over every minimum-cost path is what reduces RotorNet's
// sensitivity to slice duration in the Fig. 10 study.
func UCMP(ix *core.ConnIndex, opt Options) []core.Path {
	var out []core.Path
	earliestAllPairs(ix, opt, func(paths []core.Path) {
		if len(paths) == 0 {
			return
		}
		w := 1.0 / float64(len(paths))
		for i := range paths {
			paths[i].Weight = w
		}
		out = append(out, paths...)
	})
	return out
}

// HOHO materializes hop-on hop-off routing: the single latency-optimal path
// per (src, dst, arrival slice) — minimal delivery slice, then minimal hop
// count. Packets "hop on" the earliest useful circuit and "hop off" at the
// node from which the destination is soonest reachable.
func HOHO(ix *core.ConnIndex, opt Options) []core.Path {
	o := opt
	o.MaxPaths = 1
	var out []core.Path
	earliestAllPairs(ix, o, func(paths []core.Path) { out = append(out, paths...) })
	return out
}
