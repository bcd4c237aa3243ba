package core

import (
	"testing"
	"unsafe"
)

// FuzzTableLookup decodes bytes into Add/AddAll batches, Clears and
// queries against one table, and checks every lookup against a linear
// scan: the best covering entry by (priority desc, wildcards asc,
// insertion order), with its action chosen by a per-lookup weight walk,
// for a per-packet and a per-flow hash.
// Entries mix wildcard and concrete fields, including negative IDs that
// are not the NoNode/WildcardSlice sentinels.
func FuzzTableLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader{data}
		tab := NewTable()
		var ref []*Entry // installed entries in insertion order
		check := func(arr Slice, src, dst NodeID, h uint64) {
			var want *Entry
			for _, e := range ref {
				if e.Match.Covers(arr, src, dst) && (want == nil || refBefore(e, want)) {
					want = e
				}
			}
			for _, hs := range [][2]uint64{{h, 0}, {0, h}} {
				got, ok := tab.Lookup(arr, src, dst, hs[0], hs[1])
				if ok != (want != nil) || ok && !sameEntry(got.Entry, want) {
					t.Fatalf("Lookup(%d, %d, %d) = %+v ok=%v, want entry %+v", arr, src, dst, got.Entry, ok, want)
				}
				if !ok {
					continue
				}
				if a := refSelect(want, hs[0], hs[1]); got.Egress != a.Egress || got.DepSlice != a.DepSlice {
					t.Fatalf("Lookup(%d, %d, %d) hashes %v chose (%d,%d), want (%d,%d)",
						arr, src, dst, hs, got.Egress, got.DepSlice, a.Egress, a.DepSlice)
				}
			}
		}
		for r.more() {
			switch op := r.next(); op % 4 {
			case 0:
				e := r.entry()
				if err := tab.Add(e); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, &e)
			case 1:
				batch := make([]Entry, 1+int(r.next()%8))
				for i := range batch {
					batch[i] = r.entry()
				}
				if err := tab.AddAll(batch); err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					ref = append(ref, &batch[i])
				}
			case 2:
				tab.Clear()
				ref = ref[:0]
			case 3:
				arr, src, dst := r.query()
				check(arr, src, dst, uint64(r.next())*0x9e3779b97f4a7c15)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
			}
		}
		for _, arr := range fuzzQueryArr {
			for _, src := range fuzzQueryNode {
				for _, dst := range fuzzQueryNode {
					check(arr, src, dst, uint64(arr+7)*0x9e3779b97f4a7c15+uint64(src+5)<<20+uint64(dst+3))
				}
			}
		}
	})
}

// sameEntry reports whether a and b are one installed entry. Add installs
// a copy of its argument, so entries are told apart by their Actions
// array, which the copy shares and every decoded entry owns.
func sameEntry(a, b *Entry) bool { return &a.Actions[0] == &b.Actions[0] }

// refBefore is the reference precedence, written out apart from
// entryLess: higher priority, then fewer wildcards. Ties go to the earlier
// insertion, which the scan sees first.
func refBefore(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	wild := func(m Match) int {
		n := 0
		for _, w := range []bool{m.ArrSlice < 0, m.Src == NoNode, m.Dst == NoNode} {
			if w {
				n++
			}
		}
		return n
	}
	return wild(a.Match) < wild(b.Match)
}

// refSelect is selectAction without the precomputed weights: it walks the
// action weights on every call, summing in action order.
func refSelect(e *Entry, pktHash, flowHash uint64) Action {
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
	w := func(a Action) float64 {
		if a.Weight <= 0 {
			return 1
		}
		return a.Weight
	}
	weighted := false
	var total float64
	for _, a := range e.Actions {
		weighted = weighted || a.Weight > 0 && a.Weight != 1
		total += w(a)
	}
	if !weighted {
		return e.Actions[h%uint64(len(e.Actions))]
	}
	x := float64(h%1000003) / 1000003 * total
	var cum float64
	for _, a := range e.Actions {
		cum += w(a)
		if x < cum {
			return a
		}
	}
	return e.Actions[len(e.Actions)-1]
}

var (
	fuzzEntryArr  = []Slice{WildcardSlice, -3, 0, 1, 2, 3}
	fuzzEntryNode = []NodeID{NoNode, -2, 0, 1, 2}
	fuzzQueryArr  = []Slice{WildcardSlice, 0, 1, 2, 3, 4}
	fuzzQueryNode = []NodeID{NoNode, -2, 0, 1, 2, 3}
	fuzzWeights   = [][]float64{{0, 0, 0}, {1, 1, 1}, {1, 2, 3}, {0.5, 0, 2}}
)

type fuzzReader struct{ b []byte }

func (r *fuzzReader) more() bool { return len(r.b) > 0 }

func (r *fuzzReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// entry decodes a valid entry from three bytes. Action j egresses on port
// j, so the chosen port names the chosen action.
func (r *fuzzReader) entry() Entry {
	b0, b1, b2 := r.next(), r.next(), r.next()
	e := Entry{
		Priority: int(b0 % 3),
		Match: Match{
			ArrSlice: fuzzEntryArr[int(b0/3)%len(fuzzEntryArr)],
			Src:      fuzzEntryNode[int(b1)%len(fuzzEntryNode)],
			Dst:      fuzzEntryNode[int(b1/5)%len(fuzzEntryNode)],
		},
		Mode: MultipathMode(b2 / 3 % 3),
	}
	n := 1 + int(b2%3)
	ws := fuzzWeights[int(b2/9)%len(fuzzWeights)]
	for j := 0; j < n; j++ {
		dep := Slice(j)
		if (b1>>j)&1 == 1 {
			dep = WildcardSlice
		}
		e.Actions = append(e.Actions, Action{Egress: PortID(j), DepSlice: dep, Weight: ws[j]})
	}
	if n > 1 && e.Mode == MultipathNone {
		e.Mode = MultipathPacket
	}
	return e
}

// query decodes a packet's (arrival slice, src, dst) from two bytes.
func (r *fuzzReader) query() (Slice, NodeID, NodeID) {
	b0, b1 := r.next(), r.next()
	return fuzzQueryArr[int(b0)%len(fuzzQueryArr)],
		fuzzQueryNode[int(b1)%len(fuzzQueryNode)],
		fuzzQueryNode[int(b1/6)%len(fuzzQueryNode)]
}

// TestEntryLayout pins the compact Entry: tables hold one per installed
// match, 14 M of them at 192 ToRs.
func TestEntryLayout(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s > 64 {
		t.Fatalf("sizeof(Entry) = %d B, want <= 64", s)
	}
}
