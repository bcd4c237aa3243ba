package core

import (
	"fmt"
	"sort"
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
	Actions  []Action // len > 1 forms a multipath group
	Mode     MultipathMode
	seq      int // insertion order, assigned by Table.Add

	// Weighted-multipath state precomputed by Table.Add so selectAction
	// does not walk the action weights on every packet: cum[i] is the
	// cumulative weight through Actions[i] (nil when the group is
	// unweighted — all weights are 1 or unset — and plain modulo hashing
	// applies); wtotal is the final cumulative sum.
	cum    []float64
	wtotal float64
}

// Table is a time-flow table instance as installed on one endpoint node
// (switch or NIC). Lookup cost is O(entries for dst) + O(wildcard-dst
// entries); production pipelines realize the same match with TCAM.
//
// Table is not safe for concurrent mutation; devices own their tables and
// the controller deploys via the device's serialized event loop.
type Table struct {
	byDst  map[NodeID][]*Entry // entries with concrete Dst
	anyDst []*Entry            // entries with wildcard Dst
	n      int
	seq    int

	// Lookup memoization for the stable-table fast path: the resolved
	// best entry per (dst, arrival slice), filled lazily by Lookup and
	// invalidated wholesale by Add/Clear. A nil value records a definite
	// miss. The cache is bypassed whenever any entry matches on Src,
	// because the resolved entry would then depend on a third key
	// dimension.
	cache        map[lookupKey]*Entry
	srcSensitive bool
}

// lookupKey indexes the resolved-entry cache.
type lookupKey struct {
	dst NodeID
	arr Slice
}

// NewTable returns an empty time-flow table.
func NewTable() *Table {
	return &Table{byDst: make(map[NodeID][]*Entry)}
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.n }

// Add installs an entry. It validates the entry and keeps per-destination
// entry lists sorted by (priority desc, specificity desc, insertion order).
func (t *Table) Add(e Entry) error { return t.AddAll([]Entry{e}) }

// AddAll installs es in order, exactly as that many Add calls would, but
// stores the entries in es itself and allocates once per destination list
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
	batch := es
	// Group the batch per destination list, keeping batch order, in one
	// backing array carved per list.
	count := make(map[NodeID]int)
	for i := range batch {
		e := &batch[i]
		e.seq = t.seq
		t.seq++
		e.precomputeWeights()
		count[e.Match.Dst]++
		if e.Match.Src != NoNode {
			t.srcSensitive = true
		}
	}
	t.n += len(batch)
	lists := make(map[NodeID][]*Entry, len(count))
	ptrs := make([]*Entry, len(batch))
	for dst, c := range count {
		lists[dst] = ptrs[:0:c]
		ptrs = ptrs[c:]
	}
	for i := range batch {
		e := &batch[i]
		lists[e.Match.Dst] = append(lists[e.Match.Dst], e)
	}
	for dst, l := range lists {
		if dst == NoNode {
			t.anyDst = mergeSorted(t.anyDst, l)
		} else {
			t.byDst[dst] = mergeSorted(t.byDst[dst], l)
		}
	}
	t.cache = nil
	return nil
}

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
// multipath groups. The summation order matches the per-lookup walk the
// seed performed, so selection stays bit-identical.
func (e *Entry) precomputeWeights() {
	e.cum, e.wtotal = nil, 0
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
	e.cum = make([]float64, len(e.Actions))
	var cum float64
	for i, a := range e.Actions {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		cum += w
		e.cum[i] = cum
	}
	e.wtotal = cum
}

// Clear removes all entries (used when the controller re-deploys routing
// for a new topology instance in TA architectures).
func (t *Table) Clear() {
	t.byDst = make(map[NodeID][]*Entry)
	t.anyDst = nil
	t.n = 0
	t.cache = nil
	t.srcSensitive = false
}

// mergeSorted merges add into the best-first list cur. entryLess breaks
// ties by insertion sequence, so it is a total order: sorting add and
// merging gives the order one-by-one insertion would. add is reused as
// the result when cur is empty.
func mergeSorted(cur, add []*Entry) []*Entry {
	sort.Slice(add, func(i, j int) bool { return entryLess(add[i], add[j]) })
	if len(cur) == 0 {
		return add
	}
	out := make([]*Entry, 0, len(cur)+len(add))
	i, j := 0, 0
	for i < len(cur) && j < len(add) {
		if entryLess(add[j], cur[i]) {
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

// entryLess reports whether a should be consulted before b.
func entryLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if wa, wb := a.Match.Wildcards(), b.Match.Wildcards(); wa != wb {
		return wa < wb
	}
	return a.seq < b.seq
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
func (t *Table) Lookup(arr Slice, src, dst NodeID, pktHash, flowHash uint64) (LookupResult, bool) {
	var best *Entry
	cacheable := !t.srcSensitive
	if cacheable {
		if e, hit := t.cache[lookupKey{dst, arr}]; hit {
			if e == nil {
				return LookupResult{}, false
			}
			best = e
		}
	}
	if best == nil {
		best = t.match(t.byDst[dst], arr, src, dst)
		if alt := t.match(t.anyDst, arr, src, dst); alt != nil && (best == nil || entryLess(alt, best)) {
			best = alt
		}
		if cacheable {
			if t.cache == nil {
				t.cache = make(map[lookupKey]*Entry)
			}
			t.cache[lookupKey{dst, arr}] = best
		}
		if best == nil {
			return LookupResult{}, false
		}
	}
	a := selectAction(best, pktHash, flowHash)
	return LookupResult{Egress: a.Egress, DepSlice: a.DepSlice, SourceRoute: a.SourceRoute, Entry: best}, true
}

func (t *Table) match(list []*Entry, arr Slice, src, dst NodeID) *Entry {
	for _, e := range list {
		if e.Match.Covers(arr, src, dst) {
			return e
		}
	}
	return nil
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
	// Map the hash to [0, wtotal) and walk the cumulative weights.
	x := float64(h%1000003) / 1000003 * e.wtotal
	for i, c := range e.cum {
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
	for _, l := range t.byDst {
		out = append(out, l...)
	}
	out = append(out, t.anyDst...)
	sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
	return out
}
