package openoptics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"openoptics/internal/engineobs"
)

// rotorNet16 builds the observatory's acceptance topology: 16 nodes, so a
// 4-way shard profile has 4 ToR groups of 4 and real cross-partition flow.
func rotorNet16(t *testing.T) *Net {
	t.Helper()
	cfg := Config{
		Node:            "rack",
		NodeNum:         16,
		Uplink:          1,
		HostsPerNode:    1,
		SliceDurationNs: 100_000,
		Seed:            7,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	circuits, numSlices, err := RoundRobin(cfg.NodeNum, cfg.Uplink)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		t.Fatal(err)
	}
	paths := n.VLB(circuits, numSlices, RoutingOptions{})
	if err := n.DeployRouting(paths, LookupHop, MultipathPacket); err != nil {
		t.Fatal(err)
	}
	return n
}

// observatoryRun builds the 16-node net with both instruments on, drives
// probe traffic, and returns the engine report.
func observatoryRun(t *testing.T) *engineobs.Report {
	t.Helper()
	n := rotorNet16(t)
	n.AttachEngineLedger(4)
	n.EnableShardProfile(4)
	probeTraffic(t, n, int64(4*time.Millisecond))
	n.Run(5 * time.Millisecond)
	return n.EngineReport()
}

func TestEngineReportEndToEnd(t *testing.T) {
	r := observatoryRun(t)
	if r.Events == 0 || r.Packets == 0 || r.EventsPerPacket <= 1 {
		t.Fatalf("headline: events=%d packets=%d e/p=%.2f", r.Events, r.Packets, r.EventsPerPacket)
	}
	if r.Pressure == nil || r.Pool == nil || r.Ledger == nil || r.Shards == nil {
		t.Fatalf("missing sections: %+v", r)
	}
	if p := r.Pressure; p.WheelPushes == 0 || p.InsertionSorts+p.CountingSorts == 0 || p.ChunkPool == 0 {
		t.Fatalf("pressure section recorded no wheel pushes, sorts or chunks: %+v", p)
	}
	if r.Pool.Gets != r.Packets || r.Pool.HighWater == 0 {
		t.Fatalf("pool section = %+v vs packets %d", r.Pool, r.Packets)
	}

	// Links schedule switch ingress themselves and the optical fabric
	// relays without an event of its own, so the ledger must show neither
	// pass-through edge, while still finding the remaining constant-delay
	// edges mergeable with a concrete count.
	var sawIngress bool
	for _, e := range r.Ledger.Edges {
		if e.Parent == "fabric.optical" || e.Child == "fabric.optical" {
			t.Fatalf("optical relay event survived: %+v", e)
		}
		sawIngress = sawIngress || e.Child == "switch.ingress"
	}
	if !sawIngress {
		t.Fatal("no edge schedules switch.ingress")
	}
	for _, m := range r.Ledger.Mergeable {
		if m.Parent == "link.deliver" && m.Child == "switch.ingress" {
			t.Fatalf("switch ingress still behind a link delivery: %+v", m)
		}
	}
	if len(r.Ledger.Mergeable) == 0 || r.Ledger.EventsSaved == 0 {
		t.Fatalf("merge analysis found nothing: %+v", r.Ledger.Mergeable)
	}
	if len(r.Ledger.Chains) == 0 || len(r.Ledger.Adjacent) == 0 {
		t.Fatal("chains or adjacency empty")
	}

	// Shard section: 4×4 matrix, real cross-partition flow, a positive
	// conservative-sync window.
	s := r.Shards
	if s.Parts != 4 || s.GroupSize != 4 || len(s.Flow) != 4 || len(s.Flow[0]) != 4 {
		t.Fatalf("shard dims = %+v", s)
	}
	if s.CrossHops == 0 || s.LocalHops == 0 {
		t.Fatalf("hops = local %d cross %d", s.LocalHops, s.CrossHops)
	}
	if !s.HasCross || s.MinLookaheadNs <= 0 {
		t.Fatalf("lookahead = %d (has=%v), want positive window", s.MinLookaheadNs, s.HasCross)
	}
	if len(s.LookaheadHist) == 0 {
		t.Fatal("lookahead histogram empty")
	}
}

// TestEngineReportDeterministic: two identical runs yield byte-identical
// reports (sans manifest) and byte-identical renders.
func TestEngineReportDeterministic(t *testing.T) {
	a, b := observatoryRun(t), observatoryRun(t)
	ja, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.MarshalIndent(b, "", "  ")
	if !bytes.Equal(ja, jb) {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", ja, jb)
	}
	var ra, rb bytes.Buffer
	engineobs.RenderChains(&ra, a)
	engineobs.RenderChains(&rb, b)
	if ra.String() != rb.String() {
		t.Fatal("chains render differs across identical runs")
	}
}

// TestLedgerOverheadOffByDefault: a Net without instruments produces a
// report with pressure and pool only, and the engine carries no ledger.
func TestLedgerOverheadOffByDefault(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(2 * time.Millisecond)
	if n.Engine().Ledger() != nil || n.ShardProfile() != nil {
		t.Fatal("instruments attached without opt-in")
	}
	r := n.EngineReport()
	if r.Ledger != nil || r.Shards != nil {
		t.Fatalf("sections present without instruments: %+v", r)
	}
	if r.Pressure == nil || r.Pool == nil || r.Events == 0 {
		t.Fatalf("always-on sections missing: %+v", r)
	}
}

func TestSnapshotCarriesEngineAndPool(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	snap := n.Snapshot()
	if snap.Engine.WheelPushes+snap.Engine.CursorPushes == 0 {
		t.Fatalf("snapshot engine section empty: %+v", snap.Engine)
	}
	if snap.Pool.Gets == 0 || snap.Pool.HighWater == 0 {
		t.Fatalf("snapshot pool section empty: %+v", snap.Pool)
	}
}

func TestRegistryExportsPoolAndSchedMetrics(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	var b bytes.Buffer
	if err := n.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"oo_pool_gets_total",
		"oo_pool_high_water",
		"oo_sched_wheel_pushes_total",
		"oo_sched_cursor_pushes_total",
		"oo_sched_counting_sorts_total",
		"oo_sched_chunk_pool",
		"oo_sched_pending_events",
		"oo_sched_bucket_occupancy_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics export missing %s", want)
		}
	}
}
