// Package routing implements the routing side of the OpenOptics user API
// (Table 1): the abstract routing() function materialized as TA algorithms
// that run within one topology instance (direct-circuit, ECMP, WCMP,
// k-shortest-path) and TO algorithms that run across time slices (VLB,
// Opera, UCMP, HOHO), plus the neighbors() and earliest_path() helpers.
//
// TO algorithms search a time-expanded graph: states are (node, absolute
// slice) pairs; a packet either waits at a node for the next slice or
// traverses a circuit available in the current slice. Paths come back as
// core.Path values ready for the controller to compile into time-flow
// table entries.
package routing

import (
	"bytes"
	"sort"
	"strconv"

	"openoptics/internal/core"
)

// Options tunes the path searches.
type Options struct {
	// MaxHop bounds the number of circuit traversals per path (the
	// max_hop argument of earliest_path in Table 1). 0 means 4.
	MaxHop int
	// MaxHopsPerSlice bounds in-slice chaining (Opera-style multi-hop
	// within one slice). 0 means unlimited (up to MaxHop).
	MaxHopsPerSlice int
	// MaxPaths bounds how many equal-cost paths multipath algorithms
	// return per (src, dst, ts). 0 means 8.
	MaxPaths int
	// Horizon bounds the search in slices. 0 means two optical cycles.
	Horizon int
}

func (o Options) maxHop() int {
	if o.MaxHop <= 0 {
		return 4
	}
	return o.MaxHop
}

func (o Options) maxPaths() int {
	if o.MaxPaths <= 0 {
		return 8
	}
	return o.MaxPaths
}

func (o Options) horizon(numSlices int) int {
	if o.Horizon > 0 {
		return o.Horizon
	}
	h := 2 * numSlices
	if h < 2 {
		h = 2
	}
	return h
}

func (o Options) maxHopsPerSlice() int {
	if o.MaxHopsPerSlice <= 0 {
		return 1 << 30
	}
	return o.MaxHopsPerSlice
}

type teCost struct {
	off  int32 // delivery offset — primary cost (waiting is the dominant delay)
	hops int32 // circuit traversals — secondary cost
}

func (c teCost) less(d teCost) bool {
	if c.off != d.off {
		return c.off < d.off
	}
	return c.hops < d.hops
}

// teItem is a queued state: st = position*horizon + offset, where offset
// counts the slices waited since arrival (absolute, not modulo).
type teItem struct {
	st   int32
	cost teCost
}

// pred records how a state was reached, for path reconstruction. A state
// may keep several equal-cost predecessors (UCMP needs them all).
type pred struct {
	from   int32       // predecessor state
	egress core.PortID // valid for hop edges; NoPort for wait edges
}

// teSearch is a Dijkstra over the time-expanded graph of one ConnIndex,
// reusable across sources and arrival slices. States are dense: node
// position × slice offset. A search from (src, ts) does not depend on the
// destination, so one run answers every destination through paths.
type teSearch struct {
	ix          *core.ConnIndex
	numSlices   int32
	horizon     int32
	maxHop      int32
	maxPerSlice int32

	// Per-state data, valid where seen[st] == gen.
	gen     uint32
	seen    []uint32
	done    []uint32
	cost    []teCost
	inSlice []int32 // in-slice hops taken to reach the state
	preds   [][]pred
	pq      []teItem

	src int32 // source position of the last run
	ts  core.Slice

	sorter pathSorter
}

func newTESearch(ix *core.ConnIndex, opt Options) *teSearch {
	numSlices := ix.NumSlices()
	horizon := int32(opt.horizon(numSlices))
	states := len(ix.Nodes()) * int(horizon)
	maxPerSlice := opt.maxHopsPerSlice()
	if maxPerSlice > 1<<30 {
		maxPerSlice = 1 << 30
	}
	return &teSearch{
		ix:          ix,
		numSlices:   int32(numSlices),
		horizon:     horizon,
		maxHop:      int32(opt.maxHop()),
		maxPerSlice: int32(maxPerSlice),
		seen:        make([]uint32, states),
		done:        make([]uint32, states),
		cost:        make([]teCost, states),
		inSlice:     make([]int32, states),
		preds:       make([][]pred, states),
	}
}

// push and pop keep the container/heap algorithm step for step, so equal
// costs dequeue in the same order and predecessor lists stay identical.
func (s *teSearch) push(it teItem) {
	s.pq = append(s.pq, it)
	q := s.pq
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q[j].cost.less(q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *teSearch) pop() teItem {
	q := s.pq
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].cost.less(q[j1].cost) {
			j = j2
		}
		if !q[j].cost.less(q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	s.pq = q[:n]
	return it
}

func (s *teSearch) relax(to int32, c teCost, p pred, inSlice int32) {
	if s.seen[to] != s.gen || c.less(s.cost[to]) {
		s.seen[to] = s.gen
		s.cost[to] = c
		s.preds[to] = append(s.preds[to][:0], p)
		s.inSlice[to] = inSlice
		s.push(teItem{st: to, cost: c})
	} else if !s.cost[to].less(c) { // equal cost: extra predecessor
		s.preds[to] = append(s.preds[to], p)
	}
}

// run searches from the node at position src for a packet arriving in
// slice ts, leaving every reachable state's best cost and equal-cost
// predecessors in s.
func (s *teSearch) run(src int, ts core.Slice) {
	s.gen++
	s.src, s.ts = int32(src), ts
	h := s.horizon
	start := int32(src) * h
	s.seen[start] = s.gen
	s.cost[start] = teCost{}
	s.preds[start] = s.preds[start][:0]
	s.inSlice[start] = 0
	s.pq = s.pq[:0]
	s.push(teItem{st: start})
	for len(s.pq) > 0 {
		it := s.pop()
		st, c := it.st, it.cost
		if s.done[st] == s.gen || c != s.cost[st] {
			continue
		}
		s.done[st] = s.gen
		node, off := st/h, st%h
		// Wait edge: stay put until the next slice.
		if off+1 < h {
			s.relax(st+1, teCost{off: c.off + 1, hops: c.hops},
				pred{from: st, egress: core.NoPort}, 0)
		}
		// Hop edges: traverse a circuit live in the current slice.
		if c.hops >= s.maxHop || s.inSlice[st] >= s.maxPerSlice {
			continue
		}
		cur := core.Slice((int32(ts) + off) % s.numSlices)
		for _, l := range s.ix.Links(int(node), cur) {
			s.relax(l.Peer*h+off, teCost{off: c.off, hops: c.hops + 1},
				pred{from: st, egress: l.Egress}, s.inSlice[st]+1)
		}
	}
}

// paths enumerates up to maxPaths equal-cost earliest paths from the last
// run's source to the node at position dst, ending at the reachable
// (dst, offset) state with the smallest offset — offsets equal delivery
// costs, so that state is the unique best. Paths are returned with hop
// departure slices in schedule-modulo form, ready for table compilation,
// and sorted by sortPaths.
func (s *teSearch) paths(dst int, maxPaths int) []core.Path {
	h := s.horizon
	goal := int32(-1)
	for st := int32(dst) * h; st < int32(dst+1)*h; st++ {
		if s.seen[st] == s.gen {
			goal = st
			break
		}
	}
	if goal < 0 {
		return nil
	}
	nodes := s.ix.Nodes()
	src, dstID := nodes[s.src], nodes[dst]
	start := s.src * h
	var out []core.Path
	type frame struct {
		st   int32
		hops []core.Hop // reversed (dst-side first)
	}
	stack := []frame{{st: goal}}
	for len(stack) > 0 && len(out) < maxPaths {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.st == start {
			// Materialize: reverse hops.
			hops := make([]core.Hop, len(f.hops))
			for i := range f.hops {
				hops[i] = f.hops[len(f.hops)-1-i]
			}
			out = append(out, core.Path{Src: src, Dst: dstID, TS: s.ts, Hops: hops, Weight: 1})
			continue
		}
		for _, p := range s.preds[f.st] {
			if p.egress == core.NoPort {
				// wait edge: no hop recorded
				stack = append(stack, frame{st: p.from, hops: f.hops})
				continue
			}
			dep := core.Slice((int32(s.ts) + p.from%h) % s.numSlices)
			hop := core.Hop{Node: nodes[p.from/h], Egress: p.egress, DepSlice: dep}
			nh := make([]core.Hop, len(f.hops)+1)
			copy(nh, f.hops)
			nh[len(f.hops)] = hop
			stack = append(stack, frame{st: p.from, hops: nh})
		}
	}
	s.sorter.sort(out)
	return out
}

// EarliestPaths implements the earliest_path() helper (Table 1): the
// minimal-delivery-time paths from src to dst for a packet arriving at src
// in slice ts, within maxHop circuit traversals. It returns up to
// opt.MaxPaths equal-cost paths; nil if dst is unreachable in the horizon.
func EarliestPaths(ix *core.ConnIndex, src, dst core.NodeID, ts core.Slice, opt Options) []core.Path {
	if src == dst {
		return nil
	}
	si, ok := ix.Position(src)
	if !ok {
		return nil
	}
	di, ok := ix.Position(dst)
	if !ok {
		return nil
	}
	s := newTESearch(ix, opt)
	s.run(si, ts)
	return s.paths(di, opt.maxPaths())
}

// earliestAllPairs runs one time-expanded search per (source, arrival
// slice) and hands every destination's earliest paths to emit, in the
// (src, dst, ts) order AllPairs would produce them.
func earliestAllPairs(ix *core.ConnIndex, opt Options, emit func(paths []core.Path)) {
	n := len(ix.Nodes())
	numSlices := ix.NumSlices()
	s := newTESearch(ix, opt)
	maxPaths := opt.maxPaths()
	byDst := make([][]core.Path, n*numSlices) // [dst][ts] for one source
	for src := 0; src < n; src++ {
		for ts := 0; ts < numSlices; ts++ {
			s.run(src, core.Slice(ts))
			for dst := 0; dst < n; dst++ {
				if dst != src {
					byDst[dst*numSlices+ts] = s.paths(dst, maxPaths)
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			for ts := 0; ts < numSlices; ts++ {
				emit(byDst[dst*numSlices+ts])
				byDst[dst*numSlices+ts] = nil
			}
		}
	}
}

// Neighbors re-exports the neighbors() helper for API symmetry.
func Neighbors(ix *core.ConnIndex, n core.NodeID, ts core.Slice) []core.NodeID {
	return ix.Neighbors(n, ts)
}

// sortPaths orders paths deterministically (by hop sequence) so compiled
// tables are stable across runs. The order is that of the decimal-string
// key "src|dst|ts|node,egress,dep;..." compared bytewise — "10" sorts
// before "2", and that order reaches multipath action order, so it is kept
// as is rather than replaced by a numeric comparison.
func sortPaths(paths []core.Path) {
	var s pathSorter
	s.sort(paths)
}

// pathSorter sorts paths by their keys, each built once into one shared
// buffer; callers sorting many groups reuse one sorter and its buffers.
// Paths and keys swap together. sort.Sort and sort.Slice share one
// pdqsort, so for the same comparator the permutation — ties included —
// is the one a sort.Slice would make.
type pathSorter struct {
	paths []core.Path
	keys  [][]byte
	buf   []byte
	ends  []int
}

func (s *pathSorter) sort(paths []core.Path) {
	if len(paths) < 2 {
		return
	}
	s.paths, s.buf, s.ends, s.keys = paths, s.buf[:0], s.ends[:0], s.keys[:0]
	for i := range paths {
		s.buf = appendPathKey(s.buf, &paths[i])
		s.ends = append(s.ends, len(s.buf))
	}
	begin := 0
	for _, end := range s.ends {
		s.keys = append(s.keys, s.buf[begin:end:end])
		begin = end
	}
	sort.Sort(s)
	s.paths = nil
}

func (s *pathSorter) Len() int           { return len(s.paths) }
func (s *pathSorter) Less(i, j int) bool { return bytes.Compare(s.keys[i], s.keys[j]) < 0 }
func (s *pathSorter) Swap(i, j int) {
	s.paths[i], s.paths[j] = s.paths[j], s.paths[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// appendPathKey appends the sort key of p to buf.
func appendPathKey(buf []byte, p *core.Path) []byte {
	buf = strconv.AppendInt(buf, int64(p.Src), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(p.Dst), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(p.TS), 10)
	buf = append(buf, '|')
	for _, h := range p.Hops {
		buf = strconv.AppendInt(buf, int64(h.Node), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(h.Egress), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(h.DepSlice), 10)
		buf = append(buf, ';')
	}
	return buf
}

// AllPairs invokes gen for every ordered node pair in ix and collects the
// produced paths — the shape shared by every routing() materialization.
func AllPairs(ix *core.ConnIndex, gen func(src, dst core.NodeID) []core.Path) []core.Path {
	nodes := ix.Nodes()
	var out []core.Path
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			out = append(out, gen(s, d)...)
		}
	}
	return out
}
