package hostsim

import (
	"slices"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/sim"
)

type sink struct {
	pkts  []*core.Packet
	times []int64
	eng   *sim.Engine
}

func (s *sink) Receive(pkt *core.Packet, port core.PortID) {
	s.pkts = append(s.pkts, pkt)
	s.times = append(s.times, s.eng.Now())
}

func testSched() *core.Schedule {
	return &core.Schedule{NumSlices: 4, SliceDuration: 100 * time.Microsecond,
		Guard: 200 * time.Nanosecond}
}

func newHostRig(cfg Config) (*sim.Engine, *Host, *sink) {
	eng := sim.New()
	cfg.ID = 0
	cfg.Node = 0
	if cfg.Schedule == nil {
		cfg.Schedule = testSched()
	}
	h := New(eng, cfg)
	tor := &sink{eng: eng}
	link := fabric.NewLink(eng,
		fabric.Endpoint{Dev: h, Port: 0},
		fabric.Endpoint{Dev: tor, Port: 0}, 100e9, 50)
	h.AttachLink(link)
	h.Start()
	return eng, h, tor
}

func pktTo(dst core.NodeID, size int32, sport uint16) *core.Packet {
	return &core.Packet{
		Flow:    core.FlowKey{SrcHost: 0, DstHost: 7, SrcPort: sport, DstPort: 80, Proto: core.ProtoTCP},
		SrcNode: 0, DstNode: dst,
		Size: size, Payload: size - core.HeaderBytes,
		TTL: core.DefaultTTL,
	}
}

func TestSendAndPace(t *testing.T) {
	eng, h, tor := newHostRig(Config{})
	for i := 0; i < 5; i++ {
		if !h.Send(pktTo(2, 1500, uint16(i))) {
			t.Fatal("send rejected with empty queue")
		}
	}
	eng.RunUntil(10_000)
	if len(tor.pkts) != 5 {
		t.Fatalf("%d packets on wire, want 5", len(tor.pkts))
	}
	// Pacing: consecutive sends separated by >= serialization time.
	for i := 1; i < len(tor.times); i++ {
		if d := tor.times[i] - tor.times[i-1]; d < 120 {
			t.Fatalf("packets %d,%d spaced %d ns < 120 ns serialization", i-1, i, d)
		}
	}
}

func TestSegmentQueueBackpressure(t *testing.T) {
	eng, h, _ := newHostRig(Config{SegmentQueueBytes: 4000})
	ok1 := h.Send(pktTo(2, 1500, 1))
	ok2 := h.Send(pktTo(2, 1500, 2))
	ok3 := h.Send(pktTo(2, 1500, 3)) // 4500 > 4000: rejected
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("sends = %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if h.Counters.RejectedFull != 1 {
		t.Fatal("RejectedFull not counted")
	}
	// NotifySpace fires once space frees.
	woken := false
	h.NotifySpace(func() { woken = true })
	eng.RunUntil(10_000)
	if !woken {
		t.Fatal("waiter never woken")
	}
}

func TestFlowPausingAndSignals(t *testing.T) {
	eng, h, tor := newHostRig(Config{FlowPausing: true, ElephantBytes: 3000})
	// First two packets are below the aging threshold: they flow.
	h.Send(pktTo(2, 1500, 1))
	h.Send(pktTo(2, 1500, 1))
	// Third crosses 2000 B for the flow: elephant, held (no circuit).
	h.Send(pktTo(2, 1500, 1))
	eng.RunUntil(20_000)
	if len(tor.pkts) != 2 {
		t.Fatalf("%d packets escaped, want 2 (third is a held elephant)", len(tor.pkts))
	}
	if h.Counters.HeldByPause == 0 {
		t.Fatal("HeldByPause not counted")
	}
	// A circuit signal for dst 2 releases it.
	sig := &core.Packet{
		Flow: core.FlowKey{Proto: core.ProtoCtrl, DstHost: 0},
		Ctrl: core.CtrlSignal, CtrlNode: 2, CtrlSlice: 1,
		Size: core.HeaderBytes,
	}
	eng.At(30_000, func() { h.Receive(sig, 0) })
	eng.RunUntil(250_000) // slice 1 = [100µs, 200µs)
	if len(tor.pkts) != 3 {
		t.Fatalf("%d packets after signal, want 3", len(tor.pkts))
	}
	if last := tor.times[2]; last < 100_000 {
		t.Fatalf("released packet sent at %d, before slice 1 opened", last)
	}
}

func TestTASignalOpensIndefinitely(t *testing.T) {
	eng, h, tor := newHostRig(Config{FlowPausing: true, ElephantBytes: 1000,
		Schedule: &core.Schedule{NumSlices: 1, SliceDuration: time.Millisecond}})
	h.Send(pktTo(2, 1500, 1)) // first packet passes (aging), then held
	h.Send(pktTo(2, 1500, 1))
	sig := &core.Packet{
		Flow: core.FlowKey{Proto: core.ProtoCtrl, DstHost: 0},
		Ctrl: core.CtrlSignal, CtrlNode: 2, CtrlSlice: core.WildcardSlice,
		Size: core.HeaderBytes,
	}
	eng.At(5_000, func() { h.Receive(sig, 0) })
	eng.RunUntil(50_000)
	if len(tor.pkts) != 2 {
		t.Fatalf("%d packets, want 2 after TA signal", len(tor.pkts))
	}
	// A close signal re-pauses.
	closeSig := &core.Packet{
		Flow: core.FlowKey{Proto: core.ProtoCtrl, DstHost: 0},
		Ctrl: core.CtrlSignalClose, CtrlNode: 2,
		Size: core.HeaderBytes,
	}
	eng.At(60_000, func() { h.Receive(closeSig, 0) })
	eng.At(61_000, func() { h.Send(pktTo(2, 1500, 1)) })
	eng.RunUntil(200_000)
	if len(tor.pkts) != 2 {
		t.Fatalf("%d packets, want still 2 after close signal", len(tor.pkts))
	}
}

func TestPushBackPausesDestination(t *testing.T) {
	eng, h, tor := newHostRig(Config{})
	pb := &core.Packet{
		Flow: core.FlowKey{Proto: core.ProtoCtrl, DstHost: 0},
		Ctrl: core.CtrlPushBack, CtrlNode: 2, CtrlSlice: 0,
		Size: core.HeaderBytes,
	}
	eng.At(1_000, func() { h.Receive(pb, 0) })
	eng.At(2_000, func() {
		h.Send(pktTo(2, 1500, 1)) // paused destination
		h.Send(pktTo(3, 1500, 2)) // unaffected destination
	})
	eng.RunUntil(50_000) // still within slice 0 occurrence
	if len(tor.pkts) != 1 || tor.pkts[0].DstNode != 3 {
		t.Fatalf("wire saw %d packets (first dst %v), want only dst 3",
			len(tor.pkts), tor.pkts[0].DstNode)
	}
	// After the slice passes, held traffic releases.
	eng.RunUntil(400_000)
	if len(tor.pkts) != 2 {
		t.Fatalf("%d packets after pause expiry, want 2", len(tor.pkts))
	}
	if h.Counters.PushBacksRx != 1 {
		t.Fatal("push-back not counted")
	}
}

func TestOffloadParkAndReturn(t *testing.T) {
	eng, h, tor := newHostRig(Config{OffloadLead: 5_000})
	parked := &core.Packet{
		Flow:    core.FlowKey{SrcHost: 4, DstHost: 9, Proto: core.ProtoUDP},
		SrcNode: 3, DstNode: 2,
		Size: 1500, Payload: 1400, TTL: 10,
		Flags: core.FlagOffloaded, Ctrl: core.CtrlOffload,
		CtrlSlice: 2, // return before slice 2 = [200µs, 300µs)
		SR:        []core.SRHop{{Egress: 0, DepSlice: 2}},
	}
	eng.At(10_000, func() { h.Receive(parked, 0) })
	eng.RunUntil(150_000)
	if h.ParkedPackets() != 1 {
		t.Fatalf("parked = %d, want 1", h.ParkedPackets())
	}
	eng.RunUntil(300_000)
	if h.Counters.Returned != 1 {
		t.Fatal("offloaded packet never returned")
	}
	if len(tor.pkts) != 1 {
		t.Fatalf("wire saw %d packets", len(tor.pkts))
	}
	// Returned ahead of slice 2 by ~lead.
	if ts := tor.times[0]; ts < 190_000 || ts > 200_000 {
		t.Fatalf("returned at %d, want just before 200 µs", ts)
	}
}

func TestTrafficReports(t *testing.T) {
	eng, h, tor := newHostRig(Config{
		FlowPausing: true, ElephantBytes: 1000, ReportInterval: 50_000})
	// Build up pending (held) bytes toward dst 2.
	h.Send(pktTo(2, 1500, 1))
	h.Send(pktTo(2, 1500, 1))
	h.Send(pktTo(2, 1500, 1))
	eng.RunUntil(120_000)
	var reports int
	for _, pkt := range tor.pkts {
		if pkt.Ctrl == core.CtrlReport {
			reports++
			if pkt.CtrlNode != 2 || pkt.Echo <= 0 {
				t.Fatalf("bad report: %+v", pkt)
			}
		}
	}
	if reports == 0 {
		t.Fatal("no traffic reports emitted")
	}
	if h.Counters.ReportsSent == 0 {
		t.Fatal("ReportsSent not counted")
	}
}

// TestTrafficReportsInDestinationOrder: one report batch lists its
// destinations in ascending order, whatever order the traffic arrived in,
// so runs with reports on are deterministic.
func TestTrafficReportsInDestinationOrder(t *testing.T) {
	eng, h, tor := newHostRig(Config{
		FlowPausing: true, ElephantBytes: 1000, ReportInterval: 50_000})
	for _, dst := range []core.NodeID{5, 2, 7, 3, 6} {
		h.Send(pktTo(dst, 1500, 1))
		h.Send(pktTo(dst, 1500, 1))
	}
	eng.RunUntil(60_000)
	var got []core.NodeID
	for _, pkt := range tor.pkts {
		if pkt.Ctrl == core.CtrlReport {
			got = append(got, pkt.CtrlNode)
		}
	}
	if want := []core.NodeID{2, 3, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("report destinations %v, want %v", got, want)
	}
}

func TestIntraNodeTrafficNeverHeld(t *testing.T) {
	_, h, _ := newHostRig(Config{FlowPausing: true, ElephantBytes: 1})
	p := pktTo(0, 1500, 1) // dst is our own node
	if !h.Send(p) {
		t.Fatal("intra-node send rejected")
	}
	if h.Counters.HeldByPause != 0 {
		t.Fatal("intra-node traffic was flow-paused")
	}
}

func TestReceiveDemux(t *testing.T) {
	_, h, _ := newHostRig(Config{})
	var got *core.Packet
	h.Handler = func(pkt *core.Packet) { got = pkt }
	data := &core.Packet{
		Flow: core.FlowKey{SrcHost: 5, DstHost: 0, Proto: core.ProtoUDP},
		Size: 500, Payload: 400,
	}
	h.Receive(data, 0)
	if got != data {
		t.Fatal("data packet not demuxed to handler")
	}
	if h.Counters.RxPkts != 1 {
		t.Fatal("RxPkts not counted")
	}
}
