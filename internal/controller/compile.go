// Package controller implements the optical controller's compilation
// pipeline (§4.1): it sanity-checks user-provided circuits and paths,
// compiles node-level circuits into per-OCS internal connections, and
// compiles routing paths into per-node time-flow table entries —
// per-hop lookup or source routing, with packet- or flow-level multipath
// (the LOOKUP and MULTIPATH options of deploy_routing).
package controller

import (
	"fmt"
	"sort"

	"openoptics/internal/core"
)

// CompileOptions carries the deploy_routing options.
type CompileOptions struct {
	Lookup    core.LookupMode
	Multipath core.MultipathMode
	// Priority assigned to the produced entries; TA reconfiguration
	// deploys new routes at a higher priority than the incumbents so
	// traffic shifts atomically, then garbage-collects the old ones.
	Priority int
	// ExternalPort marks ports that leave the optical schedule — e.g.
	// the uplink into the electrical fabric of hybrid architectures.
	// A hop out of an external port is not checked against the circuit
	// schedule; the external fabric delivers to the destination, so it
	// must be the path's final hop.
	ExternalPort func(core.NodeID, core.PortID) bool
}

// CompiledRouting is the result of compiling a path set: one time-flow
// table per endpoint node that appears in any path.
type CompiledRouting struct {
	Tables map[core.NodeID]*core.Table
	// Entries counts installed entries across all nodes (telemetry and
	// the Tofino resource model).
	Entries int
}

// CompileRouting validates paths against the schedule indexed by ix and
// compiles them into time-flow tables. Every hop must traverse a circuit
// that exists in the schedule during the hop's departure slice and lead
// toward the next hop (or the destination) — the controller's sanity check
// that catches wrong routing scripts before they black-hole traffic.
func CompileRouting(ix *core.ConnIndex, paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	for i := range paths {
		if err := paths[i].Validate(); err != nil {
			return nil, fmt.Errorf("controller: path %d: %w", i, err)
		}
		if err := checkPathFeasible(ix, &paths[i], opt.ExternalPort); err != nil {
			return nil, fmt.Errorf("controller: path %d: %w", i, err)
		}
	}
	switch opt.Lookup {
	case core.LookupHop:
		return compilePerHop(paths, opt)
	case core.LookupSource:
		return compileSourceRouting(paths, opt)
	}
	return nil, fmt.Errorf("controller: unknown lookup mode %v", opt.Lookup)
}

// checkPathFeasible walks the path across the schedule, confirming each
// hop's circuit exists and the node chain is consistent.
func checkPathFeasible(ix *core.ConnIndex, p *core.Path, external func(core.NodeID, core.PortID) bool) error {
	cur := p.Src
	for i, h := range p.Hops {
		if h.Node != cur {
			return fmt.Errorf("hop %d at N%d but packet is at N%d", i, h.Node, cur)
		}
		if external != nil && external(cur, h.Egress) {
			if i != len(p.Hops)-1 {
				return fmt.Errorf("hop %d exits into the external fabric but is not the final hop", i)
			}
			cur = p.Dst
			continue
		}
		ts := h.DepSlice
		next, ok := circuitPeer(ix, cur, h.Egress, ts)
		if !ok {
			return fmt.Errorf("hop %d: no circuit out of N%d.p%d in slice %d", i, cur, h.Egress, ts)
		}
		cur = next
	}
	if cur != p.Dst {
		return fmt.Errorf("path ends at N%d, want N%d", cur, p.Dst)
	}
	return nil
}

// circuitPeer resolves which node the circuit out of (n, port) during ts
// reaches.
func circuitPeer(ix *core.ConnIndex, n core.NodeID, port core.PortID, ts core.Slice) (core.NodeID, bool) {
	for _, c := range ix.Circuits(n, ts) {
		if lp, ok := c.LocalPort(n); ok && lp == port {
			peer, _, _ := c.Other(n)
			return peer, true
		}
	}
	return core.NoNode, false
}

// hopArrival returns the arrival slice at hop i of the path: the path's
// arrival slice for hop 0 and the previous hop's departure slice otherwise
// (in-slice circuit traversal).
func hopArrival(p *core.Path, i int) core.Slice {
	if i == 0 {
		return p.TS
	}
	return p.Hops[i-1].DepSlice
}

type matchKey struct {
	node core.NodeID
	m    core.Match
}

// groupSet merges same-match actions into multipath groups in two passes
// over the compile's (key, action) stream. The key pass numbers groups in
// first-seen order; the action pass fills every group's actions into one
// shared backing array, so a compile allocates per table, not per entry.
//
// Keys are indexed per (src, dst) pair, then per (node, arrival slice).
// Routing emits a pair's paths together, so the pair's small map stays
// cache-resident while its hops are keyed.
type groupSet struct {
	index   map[pairKey]map[hopKey]int32 // key -> group
	last    pairKey
	lastMap map[hopKey]int32
	keys    []matchKey // per group
	of      []int32    // per stream item: its group
	next    int        // action pass: next stream item
	start   []int32    // per group: first slot in acts
	n       []int32    // per group: actions merged so far
	acts    []core.Action
	nodes   map[core.NodeID]int32 // node -> group count
}

type pairKey struct{ src, dst core.NodeID }

type hopKey struct {
	node core.NodeID
	arr  core.Slice
}

func newGroupSet(items int) *groupSet {
	return &groupSet{
		index: make(map[pairKey]map[hopKey]int32),
		of:    make([]int32, 0, items),
		nodes: make(map[core.NodeID]int32),
	}
}

// pair starts a run of stream items whose matches share (src, dst);
// hint sizes the pair's map when the pair is new.
func (g *groupSet) pair(src, dst core.NodeID, hint int) {
	g.last = pairKey{src: src, dst: dst}
	if g.lastMap = g.index[g.last]; g.lastMap == nil {
		g.lastMap = make(map[hopKey]int32, hint)
		g.index[g.last] = g.lastMap
	}
}

// key records the next stream item's match key: the current pair's
// (src, dst) at node, arrival slice arr.
func (g *groupSet) key(node core.NodeID, arr core.Slice) {
	hk := hopKey{node: node, arr: arr}
	i, ok := g.lastMap[hk]
	if !ok {
		i = int32(len(g.keys))
		g.lastMap[hk] = i
		g.keys = append(g.keys, matchKey{node: node, m: core.Match{ArrSlice: arr, Src: g.last.src, Dst: g.last.dst}})
		g.nodes[node]++
	}
	g.of = append(g.of, i)
}

// pairRun returns the end of the run of paths sharing paths[lo]'s
// (src, dst), and the hops in that run.
func pairRun(paths []core.Path, lo int) (hi, hops int) {
	for hi = lo; hi < len(paths) && paths[hi].Src == paths[lo].Src && paths[hi].Dst == paths[lo].Dst; hi++ {
		hops += len(paths[hi].Hops)
	}
	return hi, hops
}

// layout sizes each group's slot range after the key pass.
func (g *groupSet) layout() {
	g.start = make([]int32, len(g.keys)+1)
	for _, i := range g.of {
		g.start[i+1]++
	}
	for i := range g.keys {
		g.start[i+1] += g.start[i]
	}
	g.n = make([]int32, len(g.keys))
	g.acts = make([]core.Action, len(g.of))
}

// action merges the next stream item's action into its group,
// accumulating weight on exact duplicates.
func (g *groupSet) action(a core.Action) {
	i := g.of[g.next]
	g.next++
	acts := g.acts[g.start[i] : g.start[i]+g.n[i]]
	for j := range acts {
		if sameAction(&acts[j], &a) {
			acts[j].Weight += a.Weight
			return
		}
	}
	g.acts[g.start[i]+g.n[i]] = a
	g.n[i]++
}

// actions returns group i's merged actions.
func (g *groupSet) actions(i int32) []core.Action {
	lo, hi := g.start[i], g.start[i]+g.n[i]
	return g.acts[lo:hi:hi]
}

func pathWeight(p *core.Path) float64 {
	if p.Weight <= 0 {
		return 1
	}
	return p.Weight
}

// compilePerHop decomposes paths into per-hop entries (Fig. 3 b), merging
// same-match entries at a node into multipath groups.
func compilePerHop(paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	hops := 0
	for pi := range paths {
		hops += len(paths[pi].Hops)
	}
	g := newGroupSet(hops)
	for lo := 0; lo < len(paths); {
		hi, n := pairRun(paths, lo)
		g.pair(paths[lo].Src, paths[lo].Dst, n)
		for pi := lo; pi < hi; pi++ {
			p := &paths[pi]
			for i, h := range p.Hops {
				g.key(h.Node, hopArrival(p, i))
			}
		}
		lo = hi
	}
	g.layout()
	for pi := range paths {
		p := &paths[pi]
		w := pathWeight(p)
		for _, h := range p.Hops {
			g.action(core.Action{Egress: h.Egress, DepSlice: h.DepSlice, Weight: w})
		}
	}
	return buildTables(g, opt)
}

// compileSourceRouting installs a single entry per path at the source
// (Fig. 3 d) whose action carries the full hop sequence.
func compileSourceRouting(paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	g := newGroupSet(len(paths))
	hops := 0
	for lo := 0; lo < len(paths); {
		hi, n := pairRun(paths, lo)
		hops += n
		g.pair(paths[lo].Src, paths[lo].Dst, hi-lo)
		for pi := lo; pi < hi; pi++ {
			g.key(paths[pi].Src, paths[pi].TS)
		}
		lo = hi
	}
	g.layout()
	srs := make([]core.SRHop, hops)
	for pi := range paths {
		p := &paths[pi]
		sr := srs[:len(p.Hops):len(p.Hops)]
		srs = srs[len(p.Hops):]
		for i, h := range p.Hops {
			sr[i] = core.SRHop{Egress: h.Egress, DepSlice: h.DepSlice}
		}
		g.action(core.Action{Egress: sr[0].Egress, DepSlice: sr[0].DepSlice, SourceRoute: sr, Weight: pathWeight(p)})
	}
	return buildTables(g, opt)
}

func sameAction(a, b *core.Action) bool {
	if a.Egress != b.Egress || a.DepSlice != b.DepSlice || len(a.SourceRoute) != len(b.SourceRoute) {
		return false
	}
	for i := range a.SourceRoute {
		if a.SourceRoute[i] != b.SourceRoute[i] {
			return false
		}
	}
	return true
}

// buildTables installs the groups node by node, ascending, each node's
// groups in first-seen order — a bucket pass, not a sort over groups.
func buildTables(g *groupSet, opt CompileOptions) (*CompiledRouting, error) {
	out := &CompiledRouting{Tables: make(map[core.NodeID]*core.Table, len(g.nodes))}
	nodes := make([]core.NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	first := make(map[core.NodeID]int32, len(nodes)) // node -> first slot in order
	at := int32(0)
	for _, n := range nodes {
		first[n] = at
		at += g.nodes[n]
	}
	order := make([]int32, len(g.keys))
	for i, k := range g.keys {
		order[first[k.node]] = int32(i)
		first[k.node]++
	}
	// Install each node's run of order as one batch.
	for lo := 0; lo < len(order); {
		node := g.keys[order[lo]].node
		hi := lo + int(g.nodes[node])
		batch := make([]core.Entry, 0, hi-lo)
		for _, i := range order[lo:hi] {
			k := &g.keys[i]
			acts := g.actions(i)
			mode := opt.Multipath
			if len(acts) > 1 && mode == core.MultipathNone {
				return nil, fmt.Errorf(
					"controller: node N%d match %+v has %d diverging actions but MULTIPATH=none; "+
						"use packet/flow multipath or source routing", node, k.m, len(acts))
			}
			if len(acts) == 1 {
				mode = core.MultipathNone
			}
			batch = append(batch, core.Entry{Priority: opt.Priority, Match: k.m, Actions: acts, Mode: mode})
		}
		tab := core.NewTable()
		if err := tab.AddAll(batch); err != nil {
			return nil, fmt.Errorf("controller: node N%d: %w", node, err)
		}
		out.Tables[node] = tab
		out.Entries += len(batch)
		lo = hi
	}
	return out, nil
}
