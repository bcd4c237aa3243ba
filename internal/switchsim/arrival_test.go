package switchsim

import (
	"testing"

	"openoptics/internal/sim"
)

// A packet crossing a link into the switch costs one event: the ingress
// action, one pipeline latency after the packet fully arrives.
func TestLinkArrivalIsOneIngressEvent(t *testing.T) {
	r := newRig(t, 1, Config{})
	r.sw.Start()
	pkt := dataPkt(1, 0, 1500) // for the local host
	r.upLink.Send(r.up, pkt)
	// 120 ns serialization + 100 ns propagation + 600 ns pipeline.
	r.eng.RunUntil(819)
	if r.eng.Processed != 0 || r.sw.Counters.RxPkts != 0 {
		t.Fatalf("ingress ran early: %d events, rx %d", r.eng.Processed, r.sw.Counters.RxPkts)
	}
	r.eng.RunUntil(820)
	st := r.eng.ProfileStats()
	if r.eng.Processed != 1 || len(st) != 1 || st[0].Class != sim.ClassSwitchIngress {
		t.Fatalf("hop dispatched %d events %+v, want one switch.ingress", r.eng.Processed, st)
	}
	if r.sw.Counters.RxPkts != 1 || r.sw.Counters.Delivered != 1 {
		t.Fatalf("counters after the hop: %+v", r.sw.Counters)
	}
	r.eng.RunUntil(20_000)
	if len(r.host.pkts) != 1 || r.host.pkts[0] != pkt {
		t.Fatalf("host got %d packets", len(r.host.pkts))
	}
}

// arrival is one test packet's send time and size.
type arrival struct {
	at   int64
	size int32
}

// wireDelays sends the packets into a fresh switch, over its uplink when
// viaLink is set and through direct Receive calls at the same arrival
// instants otherwise, and returns the switch, its WireDelaySampler values,
// and the host's delivery times.
func wireDelays(t *testing.T, viaLink bool, pkts []arrival) (*Switch, []int64, []int64) {
	t.Helper()
	r := newRig(t, 1, Config{})
	r.sw.Start()
	var got []int64
	r.sw.WireDelaySampler = func(ns int64, size int32) { got = append(got, ns, int64(size)) }
	for i, a := range pkts {
		p := dataPkt(uint64(i+1), 0, a.size)
		p.Enqueued = a.at // the TX trigger the sampler measures from
		if viaLink {
			r.eng.At(a.at, func() { r.upLink.Send(r.up, p) })
			continue
		}
		// The same wire time the link applies: serialization + 100 ns
		// propagation, FIFO behind the previous packet.
		arrive := a.at + r.upLink.SerializationDelay(a.size) + 100
		r.eng.At(arrive, func() { r.sw.Receive(p, 0) })
	}
	r.eng.Run()
	return r.sw, got, r.host.times
}

// The link path and the direct Receive path feed WireDelaySampler the same
// values, count the same receptions and deliver at the same instants.
func TestWireDelaySamplerMatchesReceivePath(t *testing.T) {
	// Spaced so the wire never queues: each packet's arrival is its own.
	pkts := []arrival{{1000, 1500}, {5000, 64}, {9000, 900}, {20_000, 1500}}
	linkSw, linkSamples, linkTimes := wireDelays(t, true, pkts)
	recvSw, recvSamples, recvTimes := wireDelays(t, false, pkts)
	if len(linkSamples) != 2*len(pkts) {
		t.Fatalf("link path sampled %d values, want %d", len(linkSamples), 2*len(pkts))
	}
	for i := range linkSamples {
		if linkSamples[i] != recvSamples[i] {
			t.Fatalf("sample %d: link %v, receive %v", i/2, linkSamples, recvSamples)
		}
	}
	// The wire delay is serialization + propagation only.
	if linkSamples[0] != 220 || linkSamples[2] != 105 {
		t.Fatalf("wire delays %v, want 220 ns then 105 ns", linkSamples)
	}
	if linkSw.Counters.RxPkts != recvSw.Counters.RxPkts || linkSw.Counters.RxPkts != uint64(len(pkts)) {
		t.Fatalf("rx: link %d, receive %d, want %d", linkSw.Counters.RxPkts, recvSw.Counters.RxPkts, len(pkts))
	}
	if len(linkTimes) != len(pkts) || len(recvTimes) != len(pkts) {
		t.Fatalf("deliveries: link %v, receive %v", linkTimes, recvTimes)
	}
	for i := range linkTimes {
		if linkTimes[i] != recvTimes[i] {
			t.Fatalf("delivery times: link %v, receive %v", linkTimes, recvTimes)
		}
	}
}

// Receive called directly runs the same ingress action a pipeline later:
// nothing is counted until the packet leaves the pipeline.
func TestReceiveDirect(t *testing.T) {
	r := newRig(t, 1, Config{PipelineDelay: 400})
	r.sw.Start()
	pkt := dataPkt(1, 0, 900)
	r.eng.At(1000, func() { r.sw.Receive(pkt, 0) })
	r.eng.RunUntil(1399)
	if r.sw.Counters.RxPkts != 0 {
		t.Fatal("reception counted before the pipeline finished")
	}
	r.eng.RunUntil(1400)
	if r.sw.Counters.RxPkts != 1 || r.sw.Counters.Delivered != 1 {
		t.Fatalf("counters at pipeline exit: %+v", r.sw.Counters)
	}
	r.eng.Run()
	if len(r.host.pkts) != 1 || r.host.pkts[0] != pkt {
		t.Fatalf("host got %d packets", len(r.host.pkts))
	}
	var ingress uint64
	for _, cs := range r.eng.ProfileStats() {
		if cs.Class == sim.ClassSwitchIngress {
			ingress = cs.Count
		}
	}
	if ingress != 1 {
		t.Fatalf("%d switch.ingress events, want 1", ingress)
	}
}
