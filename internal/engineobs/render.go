package engineobs

import (
	"fmt"
	"io"
	"strings"

	"openoptics/internal/sim"
)

// Text renderers for the three `ooctl engine` views. All output is derived
// from the Report's ordered slices only, so rendering the same report
// twice is byte-identical.

// RenderChains writes the causality view: top chains, the scheduling-edge
// table, same-instant adjacency, and the merge verdicts.
func RenderChains(w io.Writer, r *Report) {
	fmt.Fprintf(w, "engine causality  events=%d packets=%d events/packet=%.2f\n",
		r.Events, r.Packets, r.EventsPerPacket)
	if r.Ledger == nil {
		fmt.Fprintln(w, "no ledger section (run with -engine-ledger)")
		return
	}
	l := r.Ledger
	fmt.Fprintf(w, "chain sampling: every %d roots (%d started, %d finalized)\n",
		l.SampleEvery, l.ChainsStarted, l.ChainsFinalized)

	if len(l.Chains) > 0 {
		fmt.Fprintf(w, "\ntop chains (first-child signatures)\n")
		for _, c := range l.Chains {
			fmt.Fprintf(w, "  %8d  %s\n", c.Count, strings.Join(c.Chain, " -> "))
		}
	}

	fmt.Fprintf(w, "\nscheduling edges (parent -> child)\n")
	fmt.Fprintf(w, "  %-16s %-16s %10s %12s %10s %10s %10s\n",
		"parent", "child", "count", "same-inst", "min ns", "mean ns", "max ns")
	for _, e := range l.Edges {
		fmt.Fprintf(w, "  %-16s %-16s %10d %12d %10d %10.1f %10d\n",
			e.Parent, e.Child, e.Count, e.SameInstant, e.MinDelayNs, e.MeanDelayNs, e.MaxDelayNs)
	}

	if len(l.Adjacent) > 0 {
		fmt.Fprintf(w, "\nsame-instant adjacent dispatch pairs\n")
		for _, a := range l.Adjacent {
			fmt.Fprintf(w, "  %-16s -> %-16s %10d\n", a.Prev, a.Next, a.Count)
		}
	}

	fmt.Fprintf(w, "\nmergeable edges\n")
	if len(l.Mergeable) == 0 {
		fmt.Fprintln(w, "  none (no edge has a deterministic delay and a sole-child parent)")
	}
	for _, m := range l.Mergeable {
		fmt.Fprintf(w, "  %-16s -> %-16s %-12s saves %10d events (child-share %.4f, sole-rate %.4f)\n",
			m.Parent, m.Child, m.Kind, m.EventsSaved, m.ChildShare, m.SoleRate)
		if m.Note != "" {
			fmt.Fprintf(w, "      %s\n", m.Note)
		}
	}
	fmt.Fprintf(w, "total events saved if merged: %d (%.2f/packet of %.2f events/packet)\n",
		l.EventsSaved, l.EventsSavedPerPacket, r.EventsPerPacket)
}

// RenderPressure writes the scheduler-pressure and pool view.
func RenderPressure(w io.Writer, r *Report) {
	fmt.Fprintf(w, "engine pressure  events=%d packets=%d events/packet=%.2f\n",
		r.Events, r.Packets, r.EventsPerPacket)
	if r.Pressure == nil {
		fmt.Fprintln(w, "no pressure section")
		return
	}
	if r.SchemaVersion < 2 {
		fmt.Fprintln(w, "pressure section predates schema 2 (inline/spill bucket storage): re-record the run")
		return
	}
	p := r.Pressure
	fmt.Fprintf(w, "\nresidency: pending=%d wheel=%d overflow=%d (max wheel=%d overflow=%d)\n",
		p.PendingEvents, p.WheelEvents, p.OverflowEvents, p.MaxWheelEvents, p.MaxOverflowEvents)
	fmt.Fprintf(w, "storage:   slab=%d free=%d chunks=%d in use / %d pooled\n",
		p.SlabCap, p.FreeSlots, p.ChunksInUse, p.ChunkPool)
	pushes := p.WheelPushes + p.CursorPushes + p.OverflowPushes
	pct := func(v uint64) float64 {
		if pushes == 0 {
			return 0
		}
		return 100 * float64(v) / float64(pushes)
	}
	fmt.Fprintf(w, "pushes:    wheel=%d (%.2f%%) cursor=%d (%.2f%%) overflow=%d (%.2f%%, %d behind the window)\n",
		p.WheelPushes, pct(p.WheelPushes), p.CursorPushes, pct(p.CursorPushes),
		p.OverflowPushes, pct(p.OverflowPushes), p.BehindPushes)
	fmt.Fprintf(w, "sorts:     insertion=%d counting=%d\n", p.InsertionSorts, p.CountingSorts)
	fmt.Fprintf(w, "churn:     migrations=%d reanchors=%d\n", p.Migrations, p.Reanchors)

	fmt.Fprintf(w, "\nbucket occupancy after push (depth: pushes)\n")
	for i, c := range p.BucketOccupancy {
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "  %8s: %d\n", sim.OccLabel(i), c)
	}

	if r.Pool != nil {
		pl := r.Pool
		fmt.Fprintf(w, "\npacket pool: gets=%d puts=%d outstanding=%d high-water=%d slabs=%d grows=%d free=%d\n",
			pl.Gets, pl.Puts, pl.Outstanding, pl.HighWater, pl.Slabs, pl.Grows, pl.FreeLen)
	}
}

// RenderShards writes the sharding-feasibility view.
func RenderShards(w io.Writer, r *Report) {
	fmt.Fprintf(w, "engine shards  events=%d packets=%d events/packet=%.2f\n",
		r.Events, r.Packets, r.EventsPerPacket)
	if r.Shards == nil {
		fmt.Fprintln(w, "no shard section (run with -engine-partitions)")
		return
	}
	s := r.Shards
	fmt.Fprintf(w, "partitions: %d (ToR groups of %d)\n", s.Parts, s.GroupSize)
	fmt.Fprintf(w, "hops: local=%d cross=%d cross-fraction=%.4f\n",
		s.LocalHops, s.CrossHops, s.CrossFraction)
	if s.HasCross {
		fmt.Fprintf(w, "min cross-partition lookahead: %d ns (conservative-sync window)\n", s.MinLookaheadNs)
	} else {
		fmt.Fprintln(w, "no cross-partition hops recorded")
	}

	fmt.Fprintf(w, "\ncross-partition event-flow matrix (row=src, col=dst)\n")
	fmt.Fprintf(w, "  %6s", "")
	for j := range s.Flow {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("p%d", j))
	}
	fmt.Fprintln(w)
	for i, row := range s.Flow {
		fmt.Fprintf(w, "  %6s", fmt.Sprintf("p%d", i))
		for _, v := range row {
			fmt.Fprintf(w, " %10d", v)
		}
		fmt.Fprintln(w)
	}

	if len(s.LookaheadHist) > 0 {
		fmt.Fprintf(w, "\ncross-partition delay histogram (ns: hops)\n")
		for _, b := range s.LookaheadHist {
			fmt.Fprintf(w, "  %16s: %d\n", b.Label, b.Count)
		}
	}
}
