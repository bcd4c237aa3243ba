package fabric

import (
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// pipeDev is a Pipelined receiver that records when and on which port
// its pipeline completes. Links must never call its Receive.
type pipeDev struct {
	eng    *sim.Engine
	delay  int64
	times  []int64
	ports  []core.PortID
	direct int
}

func (d *pipeDev) Receive(*core.Packet, core.PortID) { d.direct++ }

func (d *pipeDev) Arrival() (int64, sim.Class, sim.Action) {
	return d.delay, sim.ClassSwitchIngress, d
}

func (d *pipeDev) RunEvent(_ any, v int64) {
	d.times = append(d.times, d.eng.Now())
	d.ports = append(d.ports, core.PortID(v))
}

func classCount(eng *sim.Engine, c sim.Class) uint64 {
	for _, cs := range eng.ProfileStats() {
		if cs.Class == c {
			return cs.Count
		}
	}
	return 0
}

// A hop into a pipelined device is one event: the pipeline's completion,
// at arrival + delay, with the receiving port as its operand.
func TestLinkToPipelinedDeviceIsOneEvent(t *testing.T) {
	eng := sim.New()
	a := &sink{eng: eng}
	b := &pipeDev{eng: eng, delay: 600}
	l := NewLink(eng, Endpoint{Dev: a, Port: 0}, Endpoint{Dev: b, Port: 3}, 100e9, 500)
	l.Send(a, pkt(1500, 1))
	l.Send(a, pkt(1500, 1))
	eng.Run()
	if eng.Processed != 2 {
		t.Fatalf("%d events for two hops, want 2", eng.Processed)
	}
	// 120 ns serialization + 500 ns propagation + 600 ns pipeline; the
	// second packet serializes behind the first.
	if len(b.times) != 2 || b.times[0] != 1220 || b.times[1] != 1340 {
		t.Fatalf("pipeline completions at %v, want [1220 1340]", b.times)
	}
	if b.ports[0] != 3 || b.ports[1] != 3 {
		t.Fatalf("ports %v, want 3", b.ports)
	}
	if b.direct != 0 || classCount(eng, sim.ClassLinkDeliver) != 0 {
		t.Fatalf("link delivered through Receive (%d) or a link.deliver event (%d)",
			b.direct, classCount(eng, sim.ClassLinkDeliver))
	}
}

// opticalHopRig wires node 0 (a plain sink) and node 1 (dst) to an optical
// fabric with one circuit between them.
func opticalHopRig(t *testing.T, dst Device) (*sim.Engine, *Link, *sink) {
	t.Helper()
	eng := sim.New()
	f := NewOpticalFabric(eng)
	f.CutThroughDelay = 700
	src := &sink{eng: eng}
	l0 := NewLink(eng, Endpoint{Dev: src, Port: 0}, Endpoint{Dev: f, Port: 0}, 100e9, 100)
	l1 := NewLink(eng, Endpoint{Dev: dst, Port: 0}, Endpoint{Dev: f, Port: 1}, 100e9, 100)
	f.Attach(0, 0, l0)
	f.Attach(1, 0, l1)
	sched := &core.Schedule{NumSlices: 1, SliceDuration: 100 * time.Microsecond,
		Circuits: []core.Circuit{{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0}}}
	if err := f.ApplySchedule(sched); err != nil {
		t.Fatal(err)
	}
	return eng, l0, src
}

// A link→OCS→link hop is the fabric's arrival plus the far end's delivery:
// the fabric reserves its egress wire on arrival, so the cut-through relay
// costs no event of its own (the relay design it replaces spent three).
// Arrival times are unchanged: serialization + propagation into the
// fabric, the cut-through delay, propagation out.
func TestOpticalHopSavesRelayEvent(t *testing.T) {
	dst := &sink{}
	eng, l0, src := opticalHopRig(t, dst)
	dst.eng = eng
	l0.Send(src, pkt(1500, 1))
	l0.Send(src, pkt(1500, 1))
	eng.Run()
	if eng.Processed != 4 {
		t.Fatalf("%d events for two optical hops, want 4", eng.Processed)
	}
	if classCount(eng, sim.ClassFabricOptical) != 0 {
		t.Fatal("a fabric.optical relay event ran")
	}
	// Into the fabric at 220 and 340; out of the cut-through pipeline at
	// 920 and 1040, each reserving the egress wire for 120 ns.
	if len(dst.times) != 2 || dst.times[0] != 1020 || dst.times[1] != 1140 {
		t.Fatalf("arrivals at %v, want [1020 1140]", dst.times)
	}
}

// Into a pipelined device the whole optical hop is two events — the
// fabric's arrival and the far end's pipeline completion — against four
// in the relay design (arrival, relay, delivery, completion).
func TestOpticalHopIntoPipelinedDevice(t *testing.T) {
	dst := &pipeDev{delay: 600}
	eng, l0, src := opticalHopRig(t, dst)
	dst.eng = eng
	l0.Send(src, pkt(1500, 1))
	eng.Run()
	if eng.Processed != 2 {
		t.Fatalf("%d events for one optical hop, want 2", eng.Processed)
	}
	if len(dst.times) != 1 || dst.times[0] != 1620 || dst.ports[0] != 0 {
		t.Fatalf("pipeline completion %v on ports %v, want [1620] on port 0", dst.times, dst.ports)
	}
}

// The electrical fabric is pipelined too: a link hands it the packet at
// arrival + PipelineDelay, and the route lookup happens then.
func TestElectricalFabricArrivalIsOneEvent(t *testing.T) {
	eng := sim.New()
	f := NewElectricalFabric(eng)
	f.PipelineDelay = 600
	src, dst := &sink{eng: eng}, &sink{eng: eng}
	in := NewLink(eng, Endpoint{Dev: src, Port: 0}, Endpoint{Dev: f, Port: 0}, 100e9, 100)
	out := NewLink(eng, Endpoint{Dev: f, Port: 0}, Endpoint{Dev: dst, Port: 0}, 100e9, 100)
	f.Attach(0, in)
	f.Attach(1, out)
	in.Send(src, pkt(1500, 1))
	in.Send(src, pkt(1500, 9)) // no such node
	eng.Run()
	// Two enqueue steps, one transmit completion, one delivery.
	if eng.Processed != 4 || classCount(eng, sim.ClassLinkDeliver) != 1 {
		t.Fatalf("%d events (%d link.deliver), want 4 (1)", eng.Processed, classCount(eng, sim.ClassLinkDeliver))
	}
	// 220 ns into the fabric, 600 ns pipeline, 220 ns out.
	if len(dst.times) != 1 || dst.times[0] != 1040 {
		t.Fatalf("delivery at %v, want [1040]", dst.times)
	}
	if f.DropsNoRoute != 1 || f.Forwarded != 1 {
		t.Fatalf("forwarded %d, no-route drops %d", f.Forwarded, f.DropsNoRoute)
	}
}
