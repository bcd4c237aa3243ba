package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refInsertSorted is the one-entry-at-a-time insertion Table.Add used
// before batches, kept as the reference for AddAll.
func refInsertSorted(s []*Entry, e *Entry) []*Entry {
	i := sort.Search(len(s), func(i int) bool { return entryLess(e, s[i]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func randomEntry(rng *rand.Rand) Entry {
	pick := func(wild int32, vals ...int32) int32 {
		if rng.Intn(3) == 0 {
			return wild
		}
		return vals[rng.Intn(len(vals))]
	}
	return Entry{
		Priority: rng.Intn(3),
		Match: Match{
			ArrSlice: Slice(pick(-1, 0, 1, 2)),
			Src:      NodeID(pick(-1, 0, 5)),
			Dst:      NodeID(pick(-1, 0, 1, 9)),
		},
		Actions: []Action{{Egress: PortID(rng.Intn(4)), DepSlice: WildcardSlice, Weight: 1}},
	}
}

func TestAddAllMatchesOneByOneInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		tab := NewTable()
		refByDst := make(map[NodeID][]*Entry)
		var refAny []*Entry
		seq := 0
		for b := rng.Intn(5); b >= 0; b-- {
			batch := make([]Entry, rng.Intn(200))
			for i := range batch {
				batch[i] = randomEntry(rng)
			}
			for i := range batch {
				e := batch[i]
				e.seq = seq
				seq++
				if e.Match.Dst == NoNode {
					refAny = refInsertSorted(refAny, &e)
				} else {
					refByDst[e.Match.Dst] = refInsertSorted(refByDst[e.Match.Dst], &e)
				}
			}
			var err error
			if len(batch) == 1 && rng.Intn(2) == 0 {
				err = tab.Add(batch[0])
			} else {
				err = tab.AddAll(batch)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		same := func(got, want []*Entry) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].seq != want[i].seq || got[i].Match != want[i].Match || got[i].Priority != want[i].Priority {
					return false
				}
			}
			return true
		}
		if !same(tab.anyDst, refAny) {
			t.Fatalf("iter %d: wildcard-dst list order differs", iter)
		}
		for dst, want := range refByDst {
			d := tab.byDst[dst]
			if !slices.IsSortedFunc(d.exact, cmpKeyed) ||
				!slices.IsSortedFunc(d.anySrc, cmpEntry) {
				t.Fatalf("iter %d: dst %d lists out of order", iter, dst)
			}
			// The destination's lists hold exactly the reference's
			// entries: their best-first union is the reference list.
			union := slices.Clone(d.anySrc)
			for _, k := range d.exact {
				if !k.e.exact() || k.key != exactKey(k.e.Match.Src, k.e.Match.ArrSlice) {
					t.Fatalf("iter %d: dst %d exact index holds %+v under key %x", iter, dst, k.e.Match, k.key)
				}
				union = append(union, k.e)
			}
			slices.SortFunc(union, cmpEntry)
			if !same(union, want) {
				t.Fatalf("iter %d: dst %d entries differ from one-by-one insertion", iter, dst)
			}
		}
		if tab.Len() != seq {
			t.Fatalf("iter %d: Len = %d, want %d", iter, tab.Len(), seq)
		}
	}
}

func TestAddAllRejectsWholeBatch(t *testing.T) {
	tab := NewTable()
	good := Entry{Match: Match{ArrSlice: 0, Src: NoNode, Dst: 1}, Actions: []Action{{Egress: 0}}}
	bad := Entry{Match: Match{ArrSlice: 0, Src: NoNode, Dst: 2}}
	if err := tab.AddAll([]Entry{good, bad}); err == nil {
		t.Fatal("batch with an action-less entry accepted")
	}
	if tab.Len() != 0 {
		t.Fatalf("rejected batch installed %d entries", tab.Len())
	}
}
