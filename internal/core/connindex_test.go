package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refConnIndex is a map-and-scan index kept as the differential
// reference for ConnIndex: per-slice adjacency maps, static circuits
// merged into a fresh slice per query, and a cycle scan for the earliest
// direct circuit.
type refConnIndex struct {
	numSlices int
	bySlice   []map[NodeID][]Circuit
	static    map[NodeID][]Circuit
}

func newRefConnIndex(s *Schedule) *refConnIndex {
	ns := s.NumSlices
	if ns < 1 {
		ns = 1
	}
	ix := &refConnIndex{numSlices: ns, bySlice: make([]map[NodeID][]Circuit, ns), static: make(map[NodeID][]Circuit)}
	for i := range ix.bySlice {
		ix.bySlice[i] = make(map[NodeID][]Circuit)
	}
	for _, c := range s.Circuits {
		if c.Slice.IsWildcard() {
			ix.static[c.A] = append(ix.static[c.A], c)
			ix.static[c.B] = append(ix.static[c.B], c)
			continue
		}
		m := ix.bySlice[int(c.Slice)%ns]
		m[c.A] = append(m[c.A], c)
		m[c.B] = append(m[c.B], c)
	}
	return ix
}

func (ix *refConnIndex) circuits(n NodeID, ts Slice) []Circuit {
	if ts.IsWildcard() {
		return ix.static[n]
	}
	out := append([]Circuit{}, ix.bySlice[int(ts)%ix.numSlices][n]...)
	return append(out, ix.static[n]...)
}

func (ix *refConnIndex) neighbors(n NodeID, ts Slice) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, c := range ix.circuits(n, ts) {
		if peer, _, ok := c.Other(n); ok && !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *refConnIndex) circuitBetween(a, b NodeID, ts Slice) (Circuit, bool) {
	for _, c := range ix.circuits(a, ts) {
		if peer, _, ok := c.Other(a); ok && peer == b {
			return c, true
		}
	}
	return Circuit{}, false
}

func (ix *refConnIndex) egressPort(n, peer NodeID, ts Slice) (PortID, bool) {
	c, ok := ix.circuitBetween(n, peer, ts)
	if !ok {
		return NoPort, false
	}
	return c.LocalPort(n)
}

// earliestDirect is the cycle scan both routing and the switch ran.
func (ix *refConnIndex) earliestDirect(a, b NodeID, ts Slice) (Slice, PortID, bool) {
	if ts.IsWildcard() {
		ts = 0
	}
	for off := 0; off < ix.numSlices; off++ {
		dep := Slice((int(ts) + off) % ix.numSlices)
		if eg, ok := ix.egressPort(a, b, dep); ok {
			return dep, eg, true
		}
	}
	return 0, NoPort, false
}

// randomSchedule draws circuits over a sparse node-ID set (negative and
// large IDs included): dynamic circuits, parallel circuits between one
// pair in one slice, static circuits, self-loops and slices past the
// cycle length that alias modulo it.
func randomSchedule(rng *rand.Rand) *Schedule {
	ids := []NodeID{-7, 0, 3, 4, 17, 1000, 1 << 20}
	ids = ids[:2+rng.Intn(len(ids)-1)]
	ns := 1 + rng.Intn(6)
	s := &Schedule{NumSlices: ns}
	pick := func() NodeID { return ids[rng.Intn(len(ids))] }
	for i, n := 0, rng.Intn(30); i < n; i++ {
		c := Circuit{A: pick(), PortA: PortID(rng.Intn(3)), B: pick(), PortB: PortID(rng.Intn(3))}
		switch r := rng.Intn(10); {
		case r < 2:
			c.Slice = WildcardSlice
		case r < 3:
			c.Slice = Slice(ns + rng.Intn(2*ns))
		default:
			c.Slice = Slice(rng.Intn(ns))
		}
		s.Circuits = append(s.Circuits, c)
		if rng.Intn(5) == 0 { // a parallel twin on other ports
			c.PortA, c.PortB = c.PortA+3, c.PortB+3
			s.Circuits = append(s.Circuits, c)
		}
	}
	return s
}

func TestConnIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probe := []NodeID{-7, -1, 0, 1, 3, 4, 17, 1000, 1 << 20}
	for iter := 0; iter < 400; iter++ {
		s := randomSchedule(rng)
		ix, ref := NewConnIndex(s), newRefConnIndex(s)
		slices := []Slice{WildcardSlice, -3}
		for ts := 0; ts < 2*s.NumSlices+1; ts++ {
			slices = append(slices, Slice(ts))
		}
		for _, a := range probe {
			for _, ts := range slices {
				if got, want := ix.Circuits(a, ts), ref.circuits(a, ts); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d: Circuits(%d, %d) = %v, want %v", iter, a, ts, got, want)
				}
				if got, want := ix.Neighbors(a, ts), ref.neighbors(a, ts); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d: Neighbors(%d, %d) = %v, want %v", iter, a, ts, got, want)
				}
				for _, b := range probe {
					gc, gok := ix.CircuitBetween(a, b, ts)
					wc, wok := ref.circuitBetween(a, b, ts)
					if gc != wc || gok != wok {
						t.Fatalf("iter %d: CircuitBetween(%d, %d, %d) = %v %v, want %v %v", iter, a, b, ts, gc, gok, wc, wok)
					}
					gp, gok := ix.EgressPort(a, b, ts)
					wp, wok := ref.egressPort(a, b, ts)
					if gp != wp || gok != wok {
						t.Fatalf("iter %d: EgressPort(%d, %d, %d) = %d %v, want %d %v", iter, a, b, ts, gp, gok, wp, wok)
					}
					gs, gp, gok := ix.EarliestDirect(a, b, ts)
					ws, wp, wok := ref.earliestDirect(a, b, ts)
					if gs != ws || gp != wp || gok != wok {
						t.Fatalf("iter %d: EarliestDirect(%d, %d, %d) = %d %d %v, want %d %d %v\n%v",
							iter, a, b, ts, gs, gp, gok, ws, wp, wok, s.Circuits)
					}
				}
			}
		}
		// Links mirrors Circuits from the node's side.
		for i, n := range ix.Nodes() {
			if p, ok := ix.Position(n); !ok || p != i {
				t.Fatalf("Position(%d) = %d %v, want %d", n, p, ok, i)
			}
			for _, ts := range slices {
				cs, ls := ix.Circuits(n, ts), ix.Links(i, ts)
				if len(cs) != len(ls) {
					t.Fatalf("Links(%d, %d) has %d entries, Circuits %d", i, ts, len(ls), len(cs))
				}
				for j, c := range cs {
					peer, _, _ := c.Other(n)
					eg, _ := c.LocalPort(n)
					if ix.Nodes()[ls[j].Peer] != peer || ls[j].Egress != eg {
						t.Fatalf("Links(%d, %d)[%d] = %+v, circuit %v", i, ts, j, ls[j], c)
					}
				}
			}
		}
	}
}

// TestConnIndexLookupsDoNotAllocate holds the data-plane fallback to the
// zero-allocation steady state on a hybrid static+dynamic schedule.
func TestConnIndexLookupsDoNotAllocate(t *testing.T) {
	s := &Schedule{NumSlices: 4, Circuits: []Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 1},
		{A: 1, PortA: 0, B: 2, PortB: 1, Slice: 2},
		{A: 0, PortA: 1, B: 3, PortB: 0, Slice: WildcardSlice},
		{A: 1, PortA: 1, B: 2, PortB: 2, Slice: WildcardSlice},
	}}
	ix := NewConnIndex(s)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for ts := Slice(0); ts < 8; ts++ {
			sink += len(ix.Circuits(0, ts)) + len(ix.Circuits(1, ts))
			if dep, _, ok := ix.EarliestDirect(0, 2, ts); ok {
				sink += int(dep)
			}
			if dep, _, ok := ix.EarliestDirect(1, 2, ts); ok {
				sink += int(dep)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Circuits/EarliestDirect allocate %.1f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("lookups found nothing")
	}
}
