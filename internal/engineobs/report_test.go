package engineobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// ledgeredRun executes a synthetic engine workload with known causality:
// 4 constant-delay host.tx→link.deliver→switch.ingress cascades, one
// variable-delay edge, and one fan-out dispatch. Returns the flushed ledger.
func ledgeredRun() *sim.Ledger {
	e := sim.New()
	l := sim.NewLedger(1)
	e.AttachLedger(l)
	for i := 0; i < 4; i++ {
		e.AtClass(int64(i)*1000, sim.ClassHostTx, func() {
			e.AfterClass(600, sim.ClassLinkDeliver, func() {
				e.AfterClass(0, sim.ClassSwitchIngress, func() {})
			})
		})
	}
	// Variable delay: switch.drain → host.tx at 10 ns then 20 ns.
	e.AtClass(50, sim.ClassSwitchDrain, func() { e.AfterClass(10, sim.ClassHostTx, func() {}) })
	e.AtClass(60, sim.ClassSwitchDrain, func() { e.AfterClass(20, sim.ClassHostTx, func() {}) })
	// A self-edge with constant delay: must never appear as mergeable.
	e.AtClass(70, sim.ClassSwitchRotate, func() {
		e.AfterClass(100, sim.ClassSwitchRotate, func() {})
	})
	e.Run()
	l.Flush()
	return l
}

func TestBuildLedgerMergeAnalysis(t *testing.T) {
	r := BuildLedger(ledgeredRun(), 4)
	if r.SampleEvery != 1 {
		t.Fatalf("sample every = %d", r.SampleEvery)
	}

	byEdge := map[string]MergeReport{}
	for _, m := range r.Mergeable {
		byEdge[m.Parent+"->"+m.Child] = m
	}
	// host.tx→link.deliver: constant 600 ns, sole child of its class.
	m, ok := byEdge["host.tx->link.deliver"]
	if !ok {
		t.Fatalf("constant-delay edge missing from merge analysis: %+v", r.Mergeable)
	}
	if m.Kind != "fixed-delay" || m.EventsSaved != 4 {
		t.Fatalf("host.tx edge = %+v", m)
	}
	// link.deliver→switch.ingress: zero delay every time.
	m, ok = byEdge["link.deliver->switch.ingress"]
	if !ok || m.Kind != "same-instant" || m.EventsSaved != 4 {
		t.Fatalf("same-instant edge = %+v (ok=%v)", m, ok)
	}
	if !strings.Contains(m.Note, "inline") {
		t.Fatalf("same-instant note = %q", m.Note)
	}
	// Variable-delay and self edges are never mergeable.
	if _, ok := byEdge["switch.drain->host.tx"]; ok {
		t.Fatal("variable-delay edge must not be mergeable")
	}
	if _, ok := byEdge["switch.rotate->switch.rotate"]; ok {
		t.Fatal("self edge must not be mergeable")
	}
	// Ordered by events saved; totals add up.
	for i := 1; i < len(r.Mergeable); i++ {
		if r.Mergeable[i].EventsSaved > r.Mergeable[i-1].EventsSaved {
			t.Fatalf("mergeable not ordered by savings: %+v", r.Mergeable)
		}
	}
	var sum uint64
	for _, m := range r.Mergeable {
		sum += m.EventsSaved
	}
	if r.EventsSaved != sum {
		t.Fatalf("EventsSaved %d != sum %d", r.EventsSaved, sum)
	}
	if r.EventsSavedPerPacket != float64(sum)/4 {
		t.Fatalf("per-packet savings = %v", r.EventsSavedPerPacket)
	}
}

func TestBuildShardsReport(t *testing.T) {
	p := sim.NewShardProfile(2)
	p.Record(0, 0, 100)
	p.Record(0, 1, 900)
	p.Record(0, 1, 700)
	p.Record(1, 0, 1500)
	r := BuildShards(p, 8)
	if r.Parts != 2 || r.GroupSize != 8 {
		t.Fatalf("header = %+v", r)
	}
	if r.LocalHops != 1 || r.CrossHops != 3 || r.CrossFraction != 0.75 {
		t.Fatalf("hops = %+v", r)
	}
	if !r.HasCross || r.MinLookaheadNs != 700 {
		t.Fatalf("lookahead = %+v", r)
	}
	if r.Flow[0][1] != 2 || r.Flow[1][0] != 1 {
		t.Fatalf("flow = %v", r.Flow)
	}
	if r.PairMinNs[0][1] != 700 || r.PairMinNs[1][0] != 1500 {
		t.Fatalf("pair mins = %v", r.PairMinNs)
	}
	if r.PairMinNs[0][0] != -1 || r.PairMinNs[1][1] != -1 {
		t.Fatalf("diagonal sentinel = %v", r.PairMinNs)
	}
	// Histogram trimmed to the populated log2 range: 700/900 in 512-1023,
	// 1500 in 1024-2047.
	if len(r.LookaheadHist) != 2 {
		t.Fatalf("hist = %+v", r.LookaheadHist)
	}
	if r.LookaheadHist[0].Label != "512-1023" || r.LookaheadHist[0].Count != 2 {
		t.Fatalf("hist[0] = %+v", r.LookaheadHist[0])
	}
	if r.LookaheadHist[1].Label != "1024-2047" || r.LookaheadHist[1].Count != 1 {
		t.Fatalf("hist[1] = %+v", r.LookaheadHist[1])
	}
}

func TestBuildShardsEmptyProfile(t *testing.T) {
	r := BuildShards(sim.NewShardProfile(2), 4)
	if r.HasCross || r.MinLookaheadNs != 0 || len(r.LookaheadHist) != 0 {
		t.Fatalf("empty profile report = %+v", r)
	}
	if BuildShards(nil, 0) != nil || BuildLedger(nil, 0) != nil {
		t.Fatal("nil inputs must yield nil sections")
	}
}

// fullReport builds a report exercising every section.
func fullReport() *Report {
	events, packets := uint64(140), uint64(10)
	p := sim.NewShardProfile(2)
	p.Record(0, 1, 800)
	p.Record(1, 1, 5)
	r := &Report{
		SchemaVersion:   SchemaVersion,
		Events:          events,
		Packets:         packets,
		EventsPerPacket: EventsPerPacketOf(events, packets),
		Ledger:          BuildLedger(ledgeredRun(), packets),
		Pressure: &sim.SchedPressure{PendingEvents: 3, WheelPushes: 80, CursorPushes: 15,
			OverflowPushes: 5, BehindPushes: 1, InsertionSorts: 30, CountingSorts: 2,
			ChunkPool: 12, ChunksInUse: 4},
		Shards: BuildShards(p, 8),
		Pool:   BuildPool(core.PoolStats{Gets: 10, Puts: 8, Outstanding: 2, HighWater: 5, Slabs: 1}),
	}
	return r
}

func TestRendersAreByteDeterministic(t *testing.T) {
	r := fullReport()
	for name, render := range map[string]func(*Report) string{
		"chains":   func(r *Report) string { var b bytes.Buffer; RenderChains(&b, r); return b.String() },
		"pressure": func(r *Report) string { var b bytes.Buffer; RenderPressure(&b, r); return b.String() },
		"shards":   func(r *Report) string { var b bytes.Buffer; RenderShards(&b, r); return b.String() },
	} {
		a, b := render(r), render(r)
		if a != b {
			t.Fatalf("%s render not deterministic", name)
		}
		if a == "" {
			t.Fatalf("%s render empty", name)
		}
	}
	// JSON round-trip is deterministic too (no maps anywhere in the report).
	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r)
	if !bytes.Equal(j1, j2) {
		t.Fatal("report JSON not deterministic")
	}
	var back Report
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.EventsPerPacket != r.EventsPerPacket || back.Ledger == nil || back.Shards == nil {
		t.Fatalf("round-trip lost sections: %+v", back)
	}
}

func TestRenderChainsNamesMergeableEdges(t *testing.T) {
	var b bytes.Buffer
	RenderChains(&b, fullReport())
	out := b.String()
	for _, want := range []string{
		"mergeable edges",
		"host.tx",
		"link.deliver",
		"same-instant",
		"fixed-delay",
		"same-instant adjacent dispatch pairs",
		"total events saved if merged",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chains render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderPressureSplitsPushes(t *testing.T) {
	var b bytes.Buffer
	RenderPressure(&b, fullReport())
	out := b.String()
	for _, want := range []string{
		"chunks=4 in use / 12 pooled",
		"wheel=80 (80.00%) cursor=15 (15.00%) overflow=5 (5.00%, 1 behind the window)",
		"sorts:     insertion=30 counting=2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("pressure render missing %q:\n%s", want, out)
		}
	}
	// A schema-1 report's pressure section names storage that is gone.
	r := fullReport()
	r.SchemaVersion = 1
	b.Reset()
	RenderPressure(&b, r)
	if !strings.Contains(b.String(), "predates schema 2") || strings.Contains(b.String(), "pushes:") {
		t.Fatalf("schema-1 pressure render: %q", b.String())
	}
}

func TestRenderHandlesMissingSections(t *testing.T) {
	r := &Report{SchemaVersion: SchemaVersion, Events: 5}
	var b bytes.Buffer
	RenderChains(&b, r)
	if !strings.Contains(b.String(), "no ledger section") {
		t.Fatalf("chains without ledger: %q", b.String())
	}
	b.Reset()
	RenderShards(&b, r)
	if !strings.Contains(b.String(), "no shard section") {
		t.Fatalf("shards without profile: %q", b.String())
	}
}
