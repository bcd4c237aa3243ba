package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// vlbTable builds node 0's per-hop table of a synthetic n-ToR rotor with
// one uplink and n-1 slices, where node i's circuit in slice ts reaches
// (i+ts+1) mod n. It is shaped like a compiled VLB table: every match is
// a concrete (arr, src, dst). As the source, node 0 holds one entry per
// (dst, arrival slice): the direct hop when the circuit is up, otherwise a
// two-way packet-sprayed group of "wait for the direct circuit" and
// "bounce off the current peer". As an intermediate it holds one entry
// per (src, dst) for the slice src's circuit reaches it in, forwarding in
// the slice of its direct circuit to dst. It also returns a query mix of
// half local and half transit arrivals.
func vlbTable(n int) (*Table, [][3]int32) {
	const node = 0
	slices := n - 1
	peer := func(i, ts int) int { return (i + ts + 1) % n }
	direct := func(i, d int) Slice { return Slice(((d-i-1)%n + n) % n) }
	var es []Entry
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src || dst == node {
				continue
			}
			if src == node {
				for ts := 0; ts < slices; ts++ {
					acts := []Action{{Egress: 0, DepSlice: direct(node, dst), Weight: 1}}
					mode := MultipathNone
					if peer(node, ts) != dst {
						acts = append(acts, Action{Egress: 0, DepSlice: Slice(ts), Weight: 1})
						mode = MultipathPacket
					}
					es = append(es, Entry{Match: Match{ArrSlice: Slice(ts), Src: NodeID(src), Dst: NodeID(dst)},
						Actions: acts, Mode: mode})
				}
				continue
			}
			es = append(es, Entry{Match: Match{ArrSlice: direct(src, node), Src: NodeID(src), Dst: NodeID(dst)},
				Actions: []Action{{Egress: 0, DepSlice: direct(node, dst), Weight: 1}}})
		}
	}
	tab := NewTable()
	if err := tab.AddAll(es); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([][3]int32, 4096)
	for i := range qs {
		dst := 1 + rng.Intn(n-1)
		if i%2 == 0 {
			qs[i] = [3]int32{int32(rng.Intn(slices)), node, int32(dst)}
			continue
		}
		src := 1 + rng.Intn(n-1)
		for src == dst {
			src = 1 + rng.Intn(n-1)
		}
		qs[i] = [3]int32{int32(direct(src, node)), int32(src), int32(dst)}
	}
	return tab, qs
}

// BenchmarkTableLookup times one time-flow lookup on VLB-shaped per-hop
// tables at 16, 64 and 192 ToRs (the paper's §7 scale).
func BenchmarkTableLookup(b *testing.B) {
	for _, n := range []int{16, 64, 192} {
		tab, qs := vlbTable(n)
		b.Run(fmt.Sprintf("tors=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i&(len(qs)-1)]
				if _, ok := tab.Lookup(Slice(q[0]), NodeID(q[1]), NodeID(q[2]), uint64(i)*0x9e3779b97f4a7c15, 0); !ok {
					b.Fatalf("miss on %v", q)
				}
			}
		})
	}
}
