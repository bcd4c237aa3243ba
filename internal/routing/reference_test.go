package routing

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/topo"
)

// This file keeps straightforward implementations as differential
// references: the fmt.Sprintf sort key, a map-based time-expanded search
// run once per destination, and cycle-scanning VLB and direct routing.
// The production code must reproduce them path for path.

func refPathKey(p *core.Path) string {
	s := fmt.Sprintf("%d|%d|%d|", p.Src, p.Dst, p.TS)
	for _, h := range p.Hops {
		s += fmt.Sprintf("%d,%d,%d;", h.Node, h.Egress, h.DepSlice)
	}
	return s
}

func refSortPaths(paths []core.Path) {
	sort.Slice(paths, func(i, j int) bool { return refPathKey(&paths[i]) < refPathKey(&paths[j]) })
}

type refState struct {
	node core.NodeID
	off  int32
}

type refItem struct {
	st   refState
	cost teCost
	idx  int
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].cost.less(q[j].cost) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *refQueue) Push(x any)        { it := x.(*refItem); it.idx = len(*q); *q = append(*q, it) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type refPred struct {
	from   refState
	egress core.PortID
}

func refSearch(ix *core.ConnIndex, src core.NodeID, ts core.Slice, opt Options) (map[refState]teCost, map[refState][]refPred) {
	numSlices := ix.NumSlices()
	horizon := int32(opt.horizon(numSlices))
	maxHop := int32(opt.maxHop())
	maxPerSlice := opt.maxHopsPerSlice()
	dist := make(map[refState]teCost)
	preds := make(map[refState][]refPred)
	hopsInSlice := make(map[refState]int)
	start := refState{node: src}
	dist[start] = teCost{}
	pq := &refQueue{}
	heap.Push(pq, &refItem{st: start})
	done := make(map[refState]bool)
	relax := func(to refState, c teCost, p refPred, inSlice int) {
		cur, seen := dist[to]
		switch {
		case !seen || c.less(cur):
			dist[to] = c
			preds[to] = []refPred{p}
			hopsInSlice[to] = inSlice
			heap.Push(pq, &refItem{st: to, cost: c})
		case !cur.less(c):
			preds[to] = append(preds[to], p)
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refItem)
		st, c := it.st, it.cost
		if done[st] || c != dist[st] {
			continue
		}
		done[st] = true
		if st.off+1 < horizon {
			relax(refState{node: st.node, off: st.off + 1}, teCost{off: c.off + 1, hops: c.hops},
				refPred{from: st, egress: core.NoPort}, 0)
		}
		if c.hops >= maxHop || hopsInSlice[st] >= maxPerSlice {
			continue
		}
		cur := core.Slice((int32(ts) + st.off) % int32(numSlices))
		for _, cc := range ix.Circuits(st.node, cur) {
			peer, _, ok := cc.Other(st.node)
			if !ok {
				continue
			}
			egress, _ := cc.LocalPort(st.node)
			relax(refState{node: peer, off: st.off}, teCost{off: c.off, hops: c.hops + 1},
				refPred{from: st, egress: egress}, hopsInSlice[st]+1)
		}
	}
	return dist, preds
}

func refEarliestPaths(ix *core.ConnIndex, src, dst core.NodeID, ts core.Slice, opt Options) []core.Path {
	if src == dst {
		return nil
	}
	dist, preds := refSearch(ix, src, ts, opt)
	best := teCost{off: 1 << 30}
	var goal refState
	found := false
	for st, c := range dist {
		if st.node == dst && (!found || c.less(best)) {
			best, goal, found = c, st, true
		}
	}
	if !found {
		return nil
	}
	numSlices := int32(ix.NumSlices())
	var out []core.Path
	type frame struct {
		st   refState
		hops []core.Hop
	}
	stack := []frame{{st: goal}}
	for len(stack) > 0 && len(out) < opt.maxPaths() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.st == (refState{node: src}) {
			hops := make([]core.Hop, len(f.hops))
			for i := range f.hops {
				hops[i] = f.hops[len(f.hops)-1-i]
			}
			out = append(out, core.Path{Src: src, Dst: dst, TS: ts, Hops: hops, Weight: 1})
			continue
		}
		for _, p := range preds[f.st] {
			if p.egress == core.NoPort {
				stack = append(stack, frame{st: p.from, hops: f.hops})
				continue
			}
			dep := core.Slice((int32(ts) + p.from.off) % numSlices)
			nh := append(append([]core.Hop{}, f.hops...), core.Hop{Node: p.from.node, Egress: p.egress, DepSlice: dep})
			stack = append(stack, frame{st: p.from, hops: nh})
		}
	}
	refSortPaths(out)
	return out
}

func refHOHO(ix *core.ConnIndex, opt Options) []core.Path {
	opt.MaxPaths = 1
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < ix.NumSlices(); ts++ {
			out = append(out, refEarliestPaths(ix, s, d, core.Slice(ts), opt)...)
		}
		return out
	})
}

func refUCMP(ix *core.ConnIndex, opt Options) []core.Path {
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < ix.NumSlices(); ts++ {
			paths := refEarliestPaths(ix, s, d, core.Slice(ts), opt)
			for i := range paths {
				paths[i].Weight = 1.0 / float64(len(paths))
			}
			out = append(out, paths...)
		}
		return out
	})
}

func refEarliestDirect(ix *core.ConnIndex, a, b core.NodeID, ts core.Slice) (core.Slice, core.PortID, bool) {
	numSlices := ix.NumSlices()
	for off := 0; off < numSlices; off++ {
		dep := core.Slice((int(ts) + off) % numSlices)
		if eg, ok := ix.EgressPort(a, b, dep); ok {
			return dep, eg, true
		}
	}
	return 0, core.NoPort, false
}

func refVLB(ix *core.ConnIndex) []core.Path {
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < ix.NumSlices(); ts++ {
			arr := core.Slice(ts)
			for _, c := range ix.Circuits(s, arr) {
				w, _, _ := c.Other(s)
				eg, _ := c.LocalPort(s)
				if w == d {
					out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
						Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: arr}}})
					continue
				}
				dep, eg2, ok := refEarliestDirect(ix, w, d, arr)
				if !ok {
					continue
				}
				out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
					Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: arr}, {Node: w, Egress: eg2, DepSlice: dep}}})
			}
		}
		refSortPaths(out)
		return out
	})
}

func refDirect(ix *core.ConnIndex) []core.Path {
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < ix.NumSlices(); ts++ {
			if dep, eg, ok := refEarliestDirect(ix, s, d, core.Slice(ts)); ok {
				out = append(out, core.Path{Src: s, Dst: d, TS: core.Slice(ts), Weight: 1,
					Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: dep}}})
			}
		}
		return out
	})
}

// randomTOIndex draws a TO schedule over sparse node IDs: per slice, a
// random partial matching per uplink, sometimes a parallel circuit, and
// sometimes static circuits visible in every slice.
func randomTOIndex(rng *rand.Rand) *core.ConnIndex {
	ids := []core.NodeID{0, 2, 3, 9, 10, 11, 40, 100}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = ids[:3+rng.Intn(len(ids)-2)]
	ns := 2 + rng.Intn(6)
	uplinks := 1 + rng.Intn(2)
	var cs []core.Circuit
	for ts := 0; ts < ns; ts++ {
		for u := 0; u < uplinks; u++ {
			perm := rng.Perm(len(ids))
			for i := 0; i+1 < len(perm); i += 2 {
				if rng.Intn(4) == 0 {
					continue
				}
				cs = append(cs, core.Circuit{A: ids[perm[i]], PortA: core.PortID(u), B: ids[perm[i+1]],
					PortB: core.PortID(u), Slice: core.Slice(ts)})
			}
		}
	}
	if rng.Intn(3) == 0 {
		a, b := ids[0], ids[1]
		cs = append(cs, core.Circuit{A: a, PortA: 7, B: b, PortB: 7, Slice: core.WildcardSlice})
	}
	if rng.Intn(3) == 0 && len(cs) > 0 {
		c := cs[rng.Intn(len(cs))]
		c.PortA, c.PortB = 5, 5
		cs = append(cs, c)
	}
	return core.NewConnIndex(&core.Schedule{NumSlices: ns, Circuits: cs})
}

func randomOptions(rng *rand.Rand) Options {
	return Options{
		MaxHop:          rng.Intn(5),
		MaxHopsPerSlice: rng.Intn(3),
		MaxPaths:        rng.Intn(5),
		Horizon:         []int{0, 0, 3, 7}[rng.Intn(4)],
	}
}

func TestSortPathsMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []int{-1, 0, 1, 2, 9, 10, 11, 20, 100}
	pick := func() int { return vals[rng.Intn(len(vals))] }
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(40)
		paths := make([]core.Path, n)
		for i := range paths {
			if i > 0 && rng.Intn(4) == 0 {
				p := paths[rng.Intn(i)] // an equal key with a different weight
				p.Weight = float64(i)
				paths[i] = p
				continue
			}
			p := core.Path{Src: core.NodeID(pick()), Dst: core.NodeID(pick()), TS: core.Slice(pick()), Weight: float64(i)}
			for h := rng.Intn(4); h > 0; h-- {
				p.Hops = append(p.Hops, core.Hop{Node: core.NodeID(pick()), Egress: core.PortID(pick()), DepSlice: core.Slice(pick())})
			}
			paths[i] = p
		}
		for i := range paths {
			if got, want := string(appendPathKey(nil, &paths[i])), refPathKey(&paths[i]); got != want {
				t.Fatalf("key %q, want %q", got, want)
			}
		}
		want := append([]core.Path{}, paths...)
		refSortPaths(want)
		sortPaths(paths)
		if !reflect.DeepEqual(paths, want) {
			t.Fatalf("iter %d: sortPaths order differs from the string-key sort", iter)
		}
	}
}

func TestSharedSearchMatchesPerDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 150; iter++ {
		ix := randomTOIndex(rng)
		opt := randomOptions(rng)
		if got, want := HOHO(ix, opt), refHOHO(ix, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: HOHO differs from per-destination search (opt %+v)", iter, opt)
		}
		if got, want := UCMP(ix, opt), refUCMP(ix, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: UCMP differs from per-destination search (opt %+v)", iter, opt)
		}
		if got, want := VLB(ix, opt), refVLB(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: VLB differs from the cycle-scan reference", iter)
		}
		if got, want := Direct(ix, opt), refDirect(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Direct differs from the cycle-scan reference", iter)
		}
		// The single-destination wrapper, including slices outside the
		// cycle and nodes absent from the schedule.
		probe := append([]core.NodeID{1, 55}, ix.Nodes()...)
		for k := 0; k < 20; k++ {
			src, dst := probe[rng.Intn(len(probe))], probe[rng.Intn(len(probe))]
			ts := core.Slice(rng.Intn(3*ix.NumSlices()) - 1)
			got := EarliestPaths(ix, src, dst, ts, opt)
			want := refEarliestPaths(ix, src, dst, ts, opt)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: EarliestPaths(%d, %d, %d) = %v, want %v", iter, src, dst, ts, got, want)
			}
		}
	}
}

// TestSharedSearchOnRotor repeats the comparison on the round-robin
// schedules TestEarliestPathsProperty draws from, where every pair is
// reachable and UCMP returns several equal-cost paths.
func TestSharedSearchOnRotor(t *testing.T) {
	for _, uplink := range []int{1, 2, 3} {
		ix := rotorIndex(t, 9, uplink)
		opt := Options{MaxHop: 3, MaxPaths: 4}
		if got, want := HOHO(ix, opt), refHOHO(ix, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("uplink %d: HOHO differs", uplink)
		}
		if got, want := UCMP(ix, opt), refUCMP(ix, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("uplink %d: UCMP differs", uplink)
		}
		if got, want := VLB(ix, opt), refVLB(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("uplink %d: VLB differs", uplink)
		}
	}
}

func rotorIndex(t *testing.T, n, uplink int) *core.ConnIndex {
	t.Helper()
	circuits, numSlices, err := topo.RoundRobin(n, uplink)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewConnIndex(&core.Schedule{NumSlices: numSlices, Circuits: circuits})
}
