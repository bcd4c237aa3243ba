package core

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the time-flow table (§3) — the paper's central
// abstraction. A time-flow table is a flow table whose match side gains an
// *arrival time slice* field (Req. 1: determine which slice a packet arrived
// in and map it to the right path) and whose action side gains a *departure
// time slice* field (Req. 2: buffer the packet until the slice in which its
// circuit is up). With both time fields set to wildcards it degenerates to a
// classic flow table, which is how TA architectures and static DCNs are
// supported on the same device pipeline.

// LookupMode selects how deploy_routing compiles paths into entries:
// per-hop lookup installs one entry at every hop; source routing installs a
// single entry at the source whose action carries the entire hop sequence.
type LookupMode uint8

const (
	// LookupHop compiles paths into per-hop table entries (Fig. 3 (b)).
	LookupHop LookupMode = iota
	// LookupSource compiles paths into source-routing entries that embed
	// the full <egress port, departure slice> sequence (Fig. 3 (d)).
	LookupSource
)

func (m LookupMode) String() string {
	switch m {
	case LookupHop:
		return "hop"
	case LookupSource:
		return "source"
	}
	return fmt.Sprintf("LookupMode(%d)", uint8(m))
}

// MultipathMode selects the optional path-hashing field (§3): per-packet
// hashing (ingress timestamp / on-chip RNG) sprays packets over the action
// group; per-flow hashing (five-tuple) pins each flow to one action.
type MultipathMode uint8

const (
	// MultipathNone disables the hashing field; the first action is used.
	MultipathNone MultipathMode = iota
	// MultipathPacket selects an action per packet (timestamp/RNG hash).
	MultipathPacket
	// MultipathFlow selects an action per flow (five-tuple hash).
	MultipathFlow
)

func (m MultipathMode) String() string {
	switch m {
	case MultipathNone:
		return "none"
	case MultipathPacket:
		return "packet"
	case MultipathFlow:
		return "flow"
	}
	return fmt.Sprintf("MultipathMode(%d)", uint8(m))
}

// SRHop is one element of a source route: egress port and departure slice
// for one downstream node, written into the packet at the source (Fig. 3 d).
type SRHop struct {
	Egress   PortID
	DepSlice Slice
}

// Match is the match side of a time-flow table entry. Any field may be a
// wildcard (NoNode / WildcardSlice). ArrSlice is interpreted modulo the
// schedule's cycle length.
type Match struct {
	ArrSlice Slice  // arrival time slice, WildcardSlice = any (Req. 1)
	Src      NodeID // source endpoint node, NoNode = any
	Dst      NodeID // destination endpoint node, NoNode = any
}

// Wildcards reports how many of the three match fields are wildcards; fewer
// wildcards means a more specific entry.
func (m Match) Wildcards() int {
	n := 0
	if m.ArrSlice.IsWildcard() {
		n++
	}
	if m.Src == NoNode {
		n++
	}
	if m.Dst == NoNode {
		n++
	}
	return n
}

// Covers reports whether the match accepts a packet with the given concrete
// arrival slice and src/dst nodes.
func (m Match) Covers(arr Slice, src, dst NodeID) bool {
	if !m.ArrSlice.IsWildcard() && m.ArrSlice != arr {
		return false
	}
	if m.Src != NoNode && m.Src != src {
		return false
	}
	if m.Dst != NoNode && m.Dst != dst {
		return false
	}
	return true
}

// Action is the action side of a time-flow table entry: forward out of
// Egress in slice DepSlice (wildcard = immediately). If SourceRoute is
// non-nil the entry is a source-routing entry: SourceRoute[0] applies at
// this node and the remainder is written into the packet header for the
// downstream hops. Weight carries the share for weighted multipath.
type Action struct {
	Egress      PortID
	DepSlice    Slice
	SourceRoute []SRHop
	Weight      float64
}

// Entry is one time-flow table entry. Higher Priority wins; ties are broken
// by specificity (fewer wildcards), then insertion order.
type Entry struct {
	Priority int
	Match    Match
	Mode     MultipathMode
	Actions  []Action // len > 1 forms a multipath group
	seq      int      // insertion order, assigned by Table.Add

	// cum is the weighted-multipath state precomputed by Table.Add so
	// selectAction does not walk the action weights on every packet:
	// (*cum)[i] is the cumulative weight through Actions[i], so the last
	// element is the total. It is nil when the group is unweighted (all
	// weights are 1 or unset) and plain modulo hashing applies.
	cum *[]float64
}

// Table is a time-flow table instance as installed on one endpoint node
// (switch or NIC). Production pipelines match it in one TCAM step; here
// each destination indexes its entries with a concrete Src by the exact
// key (Src, ArrSlice). A lookup costs one map probe, a binary search per
// key it can hit — O(log k) for k entries to the destination — and a scan
// of the Src-wildcard and Dst-wildcard lists that stops at the first
// entry unable to beat the exact hit.
//
// Table is not safe for concurrent mutation; devices own their tables and
// the controller deploys via the device's serialized event loop.
type Table struct {
	byDst  map[NodeID]*dstIndex // entries with concrete Dst
	anyDst []*Entry             // entries with wildcard Dst, best-first
	n      int
	seq    int
}

// dstIndex holds the entries for one concrete destination.
type dstIndex struct {
	exact   []keyedEntry // concrete Src: sorted by key, then best-first
	anySrc  []*Entry     // wildcard Src, best-first
	wildArr bool         // some exact entry has a wildcard ArrSlice
}

// keyedEntry is an entry with a concrete Src under its exact-match key.
type keyedEntry struct {
	key uint64
	e   *Entry
}

// exactKey packs (src, arrival slice) into one index key. Every wildcard
// slice packs to the same all-ones low half, which no concrete
// (non-negative) slice reaches.
func exactKey(src NodeID, arr Slice) uint64 {
	a := uint64(uint32(arr))
	if arr.IsWildcard() {
		a = 1<<32 - 1
	}
	return uint64(uint32(src))<<32 | a
}

// NewTable returns an empty time-flow table.
func NewTable() *Table {
	return &Table{byDst: make(map[NodeID]*dstIndex)}
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.n }

// Add installs an entry after validating it. Among entries that cover the
// same packet, higher priority wins, then specificity, then insertion
// order.
func (t *Table) Add(e Entry) error { return t.AddAll([]Entry{e}) }

// AddAll installs es in order, exactly as that many Add calls would, but
// stores the entries in es itself and allocates once per kind of list
// instead of once per entry. The table takes ownership of es: the caller
// must not touch it afterwards. It validates every entry first and
// installs nothing if any is invalid.
func (t *Table) AddAll(es []Entry) error {
	for i := range es {
		if err := es[i].validate(); err != nil {
			return err
		}
	}
	if len(es) == 0 {
		return nil
	}
	// Count the batch's share of each destination's lists, then carve one
	// backing array per kind of list among the destinations. Compiled
	// batches list each (src, dst) pair's entries together, so the map is
	// consulted only when the destination changes.
	type part struct {
		dstIndex
		nExact, nPtrs int
	}
	parts := make(map[NodeID]*part)
	var p *part
	nExact := 0
	for i := range es {
		e := &es[i]
		e.seq = t.seq
		t.seq++
		e.precomputeWeights()
		if i == 0 || e.Match.Dst != es[i-1].Match.Dst {
			if p = parts[e.Match.Dst]; p == nil {
				p = new(part)
				parts[e.Match.Dst] = p
			}
		}
		if e.exact() {
			p.nExact++
			nExact++
		} else {
			p.nPtrs++
		}
	}
	t.n += len(es)
	keyed := make([]keyedEntry, nExact)
	ptrs := make([]*Entry, len(es)-nExact)
	for _, p := range parts {
		p.dstIndex = dstIndex{exact: keyed[:0:p.nExact], anySrc: ptrs[:0:p.nPtrs]}
		keyed, ptrs = keyed[p.nExact:], ptrs[p.nPtrs:]
	}
	for i := range es {
		e := &es[i]
		if i == 0 || e.Match.Dst != es[i-1].Match.Dst {
			p = parts[e.Match.Dst]
		}
		if e.exact() {
			p.exact = append(p.exact, keyedEntry{exactKey(e.Match.Src, e.Match.ArrSlice), e})
			p.wildArr = p.wildArr || e.Match.ArrSlice.IsWildcard()
		} else {
			p.anySrc = append(p.anySrc, e)
		}
	}
	for dst, p := range parts {
		if dst == NoNode {
			t.anyDst = mergeSorted(t.anyDst, p.anySrc, cmpEntry)
			continue
		}
		d := t.byDst[dst]
		if d == nil {
			d = &dstIndex{}
			t.byDst[dst] = d
		}
		d.exact = mergeSorted(d.exact, p.exact, cmpKeyed)
		d.anySrc = mergeSorted(d.anySrc, p.anySrc, cmpEntry)
		d.wildArr = d.wildArr || p.wildArr
	}
	return nil
}

// exact reports whether the entry goes in its destination's exact index:
// both endpoints concrete.
func (e *Entry) exact() bool { return e.Match.Src != NoNode && e.Match.Dst != NoNode }

// validate checks an entry before it is installed.
func (e *Entry) validate() error {
	if len(e.Actions) == 0 {
		return fmt.Errorf("timeflow: entry has no actions")
	}
	for i, a := range e.Actions {
		if a.Egress == NoPort && len(a.SourceRoute) == 0 {
			return fmt.Errorf("timeflow: action %d has neither egress port nor source route", i)
		}
		if a.Weight < 0 {
			return fmt.Errorf("timeflow: action %d has negative weight %g", i, a.Weight)
		}
		if len(a.SourceRoute) > 0 && (a.SourceRoute[0].Egress != a.Egress || a.SourceRoute[0].DepSlice != a.DepSlice) {
			return fmt.Errorf("timeflow: action %d source route head %v disagrees with action (%d,%d)",
				i, a.SourceRoute[0], a.Egress, a.DepSlice)
		}
	}
	if len(e.Actions) > 1 && e.Mode == MultipathNone {
		return fmt.Errorf("timeflow: %d actions but multipath mode none", len(e.Actions))
	}
	return nil
}

// precomputeWeights fills the entry's cumulative-weight table for weighted
// multipath groups. It sums in action order, as a per-lookup walk of the
// weights would, so selection is bit-identical.
func (e *Entry) precomputeWeights() {
	e.cum = nil
	if len(e.Actions) <= 1 {
		return
	}
	weighted := false
	for _, a := range e.Actions {
		if a.Weight > 0 && a.Weight != 1 {
			weighted = true
			break
		}
	}
	if !weighted {
		return
	}
	cum := make([]float64, len(e.Actions))
	var sum float64
	for i, a := range e.Actions {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		sum += w
		cum[i] = sum
	}
	e.cum = &cum
}

// Clear removes all entries (used when the controller re-deploys routing
// for a new topology instance in TA architectures).
func (t *Table) Clear() {
	t.byDst = make(map[NodeID]*dstIndex)
	t.anyDst = nil
	t.n = 0
}

// mergeSorted sorts add and merges it into the sorted list cur. order is a
// total order (cmpEntry breaks ties by insertion sequence), so the result
// is the order one-by-one insertion would give. add is reused as the
// result when cur is empty.
func mergeSorted[T any](cur, add []T, order func(a, b T) int) []T {
	slices.SortFunc(add, order)
	if len(cur) == 0 {
		return add
	}
	out := make([]T, 0, len(cur)+len(add))
	i, j := 0, 0
	for i < len(cur) && j < len(add) {
		if order(add[j], cur[i]) < 0 {
			out = append(out, add[j])
			j++
		} else {
			out = append(out, cur[i])
			i++
		}
	}
	out = append(out, cur[i:]...)
	return append(out, add[j:]...)
}

// cmpEntry orders entries best-first: higher priority, then fewer
// wildcards, then earlier insertion.
func cmpEntry(a, b *Entry) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	if c := cmp.Compare(a.Match.Wildcards(), b.Match.Wildcards()); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// entryLess reports whether a should be consulted before b.
func entryLess(a, b *Entry) bool { return cmpEntry(a, b) < 0 }

// cmpKeyed orders an exact index: by key, then best-first.
func cmpKeyed(a, b keyedEntry) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmpEntry(a.e, b.e)
}

// LookupResult is the outcome of a time-flow table lookup for one packet.
type LookupResult struct {
	Egress      PortID
	DepSlice    Slice // WildcardSlice = depart immediately (rank 0)
	SourceRoute []SRHop
	Entry       *Entry // the matched entry (for telemetry)
}

// Lookup finds the best entry for a packet arriving in slice arr with the
// given endpoint src/dst, and selects one action from the entry's group
// using pktHash (per-packet multipath) or flowHash (per-flow multipath).
// ok is false if no entry matches — the packet has no route.
//
// The best entry is the entryLess-minimum of every covering entry. The
// covering set splits into the exact hits under (src, arr) and (src,
// wildcard), the destination's Src-wildcard entries and the Dst-wildcard
// entries; Lookup takes the minimum of each part's best.
func (t *Table) Lookup(arr Slice, src, dst NodeID, pktHash, flowHash uint64) (LookupResult, bool) {
	var best *Entry
	if d := t.byDst[dst]; d != nil {
		best = d.find(exactKey(src, arr))
		if d.wildArr {
			if e := d.find(exactKey(src, WildcardSlice)); e != nil && (best == nil || entryLess(e, best)) {
				best = e
			}
		}
		if len(d.anySrc) > 0 {
			best = better(d.anySrc, best, arr, src, dst)
		}
	}
	if len(t.anyDst) > 0 {
		best = better(t.anyDst, best, arr, src, dst)
	}
	if best == nil {
		return LookupResult{}, false
	}
	a := selectAction(best, pktHash, flowHash)
	return LookupResult{Egress: a.Egress, DepSlice: a.DepSlice, SourceRoute: a.SourceRoute, Entry: best}, true
}

// find returns the best entry under key k, or nil. It is a plain
// lower-bound search; slices.BinarySearchFunc measured ~20% slower on
// BenchmarkTableLookup.
func (d *dstIndex) find(k uint64) *Entry {
	s := d.exact
	if len(s) == 0 {
		return nil
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		if s[base+half-1].key < k {
			base += half
		}
		n -= half
	}
	if s[base].key == k {
		return s[base].e
	}
	return nil
}

// better returns the first entry of the best-first list that covers the
// packet if it beats best, and best otherwise. The scan stops at the
// first entry that cannot beat best.
func better(list []*Entry, best *Entry, arr Slice, src, dst NodeID) *Entry {
	for _, e := range list {
		if best != nil && !entryLess(e, best) {
			break
		}
		if e.Match.Covers(arr, src, dst) {
			return e
		}
	}
	return best
}

// selectAction picks an action from a multipath group. Weighted groups use
// weighted hashing so the long-run traffic split honors action weights;
// the cumulative weights were precomputed at Add time.
func selectAction(e *Entry, pktHash, flowHash uint64) Action {
	if len(e.Actions) == 1 {
		return e.Actions[0]
	}
	var h uint64
	switch e.Mode {
	case MultipathPacket:
		h = pktHash
	case MultipathFlow:
		h = flowHash
	default:
		return e.Actions[0]
	}
	if e.cum == nil {
		return e.Actions[h%uint64(len(e.Actions))]
	}
	// Map the hash to [0, total) and walk the cumulative weights.
	cum := *e.cum
	x := float64(h%1000003) / 1000003 * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return e.Actions[i]
		}
	}
	return e.Actions[len(e.Actions)-1]
}

// Entries returns a snapshot of all entries best-first, for dumping and
// resource accounting. The returned entries must not be mutated.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, 0, t.n)
	for _, d := range t.byDst {
		for _, k := range d.exact {
			out = append(out, k.e)
		}
		out = append(out, d.anySrc...)
	}
	out = append(out, t.anyDst...)
	slices.SortFunc(out, cmpEntry)
	return out
}
