package core

import "sort"

// ConnIndex is a queryable index over a circuit set, answering the
// connectivity questions routing algorithms ask: "who is node n connected
// to in slice ts?" (the neighbors() helper of Table 1) and "which circuit
// joins a and b in slice ts?". Static (wildcard-slice) circuits are visible
// in every slice.
//
// The index is dense. Every endpoint node gets a position (its rank in
// Nodes()), and each (slice, position) owns one contiguous run of a flat
// adjacency array: the slice's dynamic circuits in schedule order, then
// the node's static circuits. Static circuits are merged into every slice
// once at build time, so no query allocates or scans more than the node's
// own circuits. A per-pair table of the slices holding a direct circuit
// answers EarliestDirect without walking the cycle.
type ConnIndex struct {
	numSlices int
	nodes     []NodeID
	pos       map[NodeID]int32 // node -> dense position

	// Adjacency in CSR form: the run for (slice s, position i) is
	// adj[start[k]:start[k+1]] with k = s*len(nodes)+i. Slice numSlices
	// holds the static circuits alone (the WildcardSlice view). links
	// parallels adj with each circuit seen from that node.
	start []int32
	adj   []Circuit
	links []Link

	// Direct-circuit table for the ordered pair (a, b), p = a*len(nodes)+b:
	// direct[dstart[p]:dstart[p+1]] lists, in ascending slice order, each
	// slice with a dynamic a->b circuit and the egress of the first such
	// circuit; static[p] holds the egress of the first static a->b
	// circuit, with slice -1 if there is none.
	dstart []int32
	direct []directSlot
	static []directSlot

	// neigh memoizes Neighbors per run (same k as start; nil = not yet
	// asked). Switches ask the same question every slice rotation, and an
	// allocation per rotation is what the zero-allocation steady state
	// forbids. Callers must treat the returned slice as read-only.
	neigh [][]NodeID
}

// Link is one circuit seen from one of its endpoints: the peer's dense
// position in Nodes() and the local egress port.
type Link struct {
	Peer   int32
	Egress PortID
}

// directSlot is one slice with a direct circuit between an ordered pair.
type directSlot struct {
	slice  int32
	egress PortID
}

// NewConnIndex builds an index for the given schedule.
func NewConnIndex(s *Schedule) *ConnIndex {
	ns := s.NumSlices
	if ns < 1 {
		ns = 1
	}
	ix := &ConnIndex{numSlices: ns, pos: make(map[NodeID]int32)}
	for _, c := range s.Circuits {
		for _, n := range [2]NodeID{c.A, c.B} {
			if _, ok := ix.pos[n]; !ok {
				ix.pos[n] = 0
				ix.nodes = append(ix.nodes, n)
			}
		}
	}
	sort.Slice(ix.nodes, func(i, j int) bool { return ix.nodes[i] < ix.nodes[j] })
	for i, n := range ix.nodes {
		ix.pos[n] = int32(i)
	}
	nn := len(ix.nodes)

	// Count each run: dynamic circuits per (slice, node), then the node's
	// static circuits once per slice plus once for the static view.
	runs := (ns + 1) * nn
	ix.start = make([]int32, runs+1)
	staticDeg := make([]int32, nn)
	for _, c := range s.Circuits {
		a, b := ix.pos[c.A], ix.pos[c.B]
		if c.Slice.IsWildcard() {
			staticDeg[a]++
			staticDeg[b]++
			continue
		}
		base := (int(c.Slice) % ns) * nn
		ix.start[base+int(a)+1]++
		ix.start[base+int(b)+1]++
	}
	for s := 0; s <= ns; s++ {
		for i := 0; i < nn; i++ {
			ix.start[s*nn+i+1] += staticDeg[i]
		}
	}
	for k := 0; k < runs; k++ {
		ix.start[k+1] += ix.start[k]
	}
	total := ix.start[runs]
	ix.adj = make([]Circuit, total)
	ix.links = make([]Link, total)
	fill := make([]int32, runs)
	copy(fill, ix.start[:runs])
	put := func(k int, c Circuit, from NodeID) {
		peer, _, _ := c.Other(from)
		eg, _ := c.LocalPort(from)
		ix.adj[fill[k]] = c
		ix.links[fill[k]] = Link{Peer: ix.pos[peer], Egress: eg}
		fill[k]++
	}
	// Dynamic circuits first, in schedule order; static ones after them.
	for _, c := range s.Circuits {
		if c.Slice.IsWildcard() {
			continue
		}
		base := (int(c.Slice) % ns) * nn
		put(base+int(ix.pos[c.A]), c, c.A)
		put(base+int(ix.pos[c.B]), c, c.B)
	}
	for _, c := range s.Circuits {
		if !c.Slice.IsWildcard() {
			continue
		}
		for s := 0; s <= ns; s++ {
			put(s*nn+int(ix.pos[c.A]), c, c.A)
			put(s*nn+int(ix.pos[c.B]), c, c.B)
		}
	}
	ix.neigh = make([][]NodeID, runs)
	ix.buildDirect()
	return ix
}

// buildDirect fills the per-pair direct-circuit table from the adjacency
// runs, keeping per slice the first circuit a Circuits scan would meet.
func (ix *ConnIndex) buildDirect() {
	nn := len(ix.nodes)
	pairs := nn * nn
	ix.static = make([]directSlot, pairs)
	for p := range ix.static {
		ix.static[p].slice = -1
	}
	for i := 0; i < nn; i++ {
		for _, l := range ix.run(ix.numSlices, i) {
			if p := i*nn + int(l.Peer); ix.static[p].slice < 0 {
				ix.static[p] = directSlot{egress: l.Egress}
			}
		}
	}
	// Count, then fill slice by slice so each pair's list is ascending.
	// last[p] dedups parallel circuits within one slice.
	ix.dstart = make([]int32, pairs+1)
	last := make([]int32, pairs)
	for p := range last {
		last[p] = -1
	}
	for s := 0; s < ix.numSlices; s++ {
		for i := 0; i < nn; i++ {
			for _, l := range ix.dynamicRun(s, i) {
				if p := i*nn + int(l.Peer); last[p] != int32(s) {
					last[p] = int32(s)
					ix.dstart[p+1]++
				}
			}
		}
	}
	for p := 0; p < pairs; p++ {
		ix.dstart[p+1] += ix.dstart[p]
		last[p] = -1
	}
	ix.direct = make([]directSlot, ix.dstart[pairs])
	fill := make([]int32, pairs)
	copy(fill, ix.dstart[:pairs])
	for s := 0; s < ix.numSlices; s++ {
		for i := 0; i < nn; i++ {
			for _, l := range ix.dynamicRun(s, i) {
				if p := i*nn + int(l.Peer); last[p] != int32(s) {
					last[p] = int32(s)
					ix.direct[fill[p]] = directSlot{slice: int32(s), egress: l.Egress}
					fill[p]++
				}
			}
		}
	}
}

// run returns the links of the node at position i in slice s, where s ==
// numSlices selects the static view.
func (ix *ConnIndex) run(s, i int) []Link {
	k := s*len(ix.nodes) + i
	return ix.links[ix.start[k]:ix.start[k+1]]
}

// dynamicRun is run without the trailing static circuits.
func (ix *ConnIndex) dynamicRun(s, i int) []Link {
	r := ix.run(s, i)
	nst := len(ix.run(ix.numSlices, i))
	return r[:len(r)-nst]
}

// runIndex maps a slice to its adjacency run: wildcard selects the static
// view, anything else aliases modulo the cycle length.
func (ix *ConnIndex) runIndex(ts Slice) int {
	if ts.IsWildcard() {
		return ix.numSlices
	}
	return int(ts) % ix.numSlices
}

// NumSlices returns the cycle length the index was built for.
func (ix *ConnIndex) NumSlices() int { return ix.numSlices }

// Nodes returns all endpoint nodes that appear in any circuit, ascending.
func (ix *ConnIndex) Nodes() []NodeID { return ix.nodes }

// Position returns n's dense position in Nodes(); ok is false if n is not
// an endpoint of any circuit.
func (ix *ConnIndex) Position(n NodeID) (int, bool) {
	i, ok := ix.pos[n]
	return int(i), ok
}

// Links returns the circuits incident to the node at position i during
// slice ts, in Circuits order, each as (peer position, local egress).
// Routing searches walk these instead of Circuits to stay in dense
// positions. The slice must not be mutated.
func (ix *ConnIndex) Links(i int, ts Slice) []Link {
	return ix.run(ix.runIndex(ts), i)
}

// Circuits returns the circuits incident to node n during slice ts: the
// slice's circuits in schedule order, then the static circuits. ts ==
// WildcardSlice returns only static circuits — the TA/static-topology
// view. The slice must not be mutated.
func (ix *ConnIndex) Circuits(n NodeID, ts Slice) []Circuit {
	k, ok := ix.runKey(n, ts)
	if !ok {
		return nil
	}
	return ix.adj[ix.start[k]:ix.start[k+1]]
}

// runKey locates node n's adjacency run for slice ts.
func (ix *ConnIndex) runKey(n NodeID, ts Slice) (int, bool) {
	i, ok := ix.pos[n]
	return ix.runIndex(ts)*len(ix.nodes) + int(i), ok
}

// Neighbors implements the neighbors() helper (Table 1): all nodes with a
// direct circuit to n in slice ts. Duplicate peers (parallel circuits) are
// deduplicated; order is ascending. The result is memoized — callers must
// not mutate the returned slice.
func (ix *ConnIndex) Neighbors(n NodeID, ts Slice) []NodeID {
	k, ok := ix.runKey(n, ts)
	if !ok {
		return nil
	}
	if out := ix.neigh[k]; out != nil {
		return out
	}
	links := ix.links[ix.start[k]:ix.start[k+1]]
	peers := make([]int, 0, len(links))
	for _, l := range links {
		peers = append(peers, int(l.Peer))
	}
	// Positions are ranks of ascending NodeIDs, so sorting positions
	// sorts the peers.
	sort.Ints(peers)
	out := make([]NodeID, 0, len(peers))
	for j, p := range peers {
		if j == 0 || p != peers[j-1] {
			out = append(out, ix.nodes[p])
		}
	}
	ix.neigh[k] = out
	return out
}

// CircuitBetween returns the first circuit joining a and b during slice ts
// in Circuits order, if any.
func (ix *ConnIndex) CircuitBetween(a, b NodeID, ts Slice) (Circuit, bool) {
	for _, c := range ix.Circuits(a, ts) {
		if peer, _, ok := c.Other(a); ok && peer == b {
			return c, true
		}
	}
	return Circuit{}, false
}

// EgressPort returns the local port on node n that reaches peer during
// slice ts, the quantity per-hop table compilation needs.
func (ix *ConnIndex) EgressPort(n, peer NodeID, ts Slice) (PortID, bool) {
	c, ok := ix.CircuitBetween(n, peer, ts)
	if !ok {
		return NoPort, false
	}
	return c.LocalPort(n)
}

// EarliestDirect returns the first slice at or after ts, cyclically, in
// which a has a direct circuit to b, with the egress EgressPort would
// report in that slice. A wildcard ts counts as slice 0. It is the
// phase-2 lookup of VLB and the switch's direct-circuit fallback.
func (ix *ConnIndex) EarliestDirect(a, b NodeID, ts Slice) (Slice, PortID, bool) {
	ia, ok := ix.pos[a]
	if !ok {
		return 0, NoPort, false
	}
	ib, ok := ix.pos[b]
	if !ok {
		return 0, NoPort, false
	}
	return ix.EarliestDirectAt(int(ia), int(ib), ts)
}

// EarliestDirectAt is EarliestDirect on dense positions.
func (ix *ConnIndex) EarliestDirectAt(a, b int, ts Slice) (Slice, PortID, bool) {
	t := int32(0)
	if !ts.IsWildcard() {
		t = int32(int(ts) % ix.numSlices)
	}
	p := a*len(ix.nodes) + b
	slots := ix.direct[ix.dstart[p]:ix.dstart[p+1]]
	// Binary search for the first slot at or after t.
	j, hi := 0, len(slots)
	for j < hi {
		m := int(uint(j+hi) >> 1)
		if slots[m].slice < t {
			j = m + 1
		} else {
			hi = m
		}
	}
	if st := ix.static[p]; st.slice >= 0 {
		// A static circuit is live in every slice, so t itself answers;
		// a dynamic circuit in t still comes first in Circuits order.
		if j < len(slots) && slots[j].slice == t {
			return Slice(t), slots[j].egress, true
		}
		return Slice(t), st.egress, true
	}
	if j == len(slots) {
		if len(slots) == 0 {
			return 0, NoPort, false
		}
		j = 0
	}
	return Slice(slots[j].slice), slots[j].egress, true
}
