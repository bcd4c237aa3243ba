// Package fabric models the network substrate devices attach to: wire
// links with serialization and propagation, the emulated optical fabric
// (§5.3) — a single logical OCS realized as a slice-indexed lookup table
// with cut-through forwarding and reconfiguration guardbands — and an
// electrical packet-switched fabric used by Clos baselines and hybrid
// architectures.
package fabric

import (
	"fmt"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// Device is anything that can receive packets from a link: switches,
// hosts, and fabrics all implement it.
type Device interface {
	// Receive is invoked by the simulator when a packet fully arrives at
	// the device on the given local port.
	Receive(pkt *core.Packet, port core.PortID)
}

// Pipelined is a Device whose every arrival passes a fixed-latency
// pipeline before the device acts on it: a switch's ingress pipeline, the
// electrical fabric's. A link delivering to one schedules the pipeline's
// completion directly at arrival + delay, so the hop costs one event
// instead of an arrival event whose only work is to schedule the
// completion.
type Pipelined interface {
	Device
	// Arrival returns the pipeline latency in ns plus the handler class
	// and action that complete an arrival. The action runs with the
	// packet as arg and the local ingress port as v. A link reads this
	// once, when it is wired.
	Arrival() (delay int64, class sim.Class, act sim.Action)
}

// Endpoint names one side of a link: a device and its local port number.
type Endpoint struct {
	Dev  Device
	Port core.PortID
}

// RunEvent implements sim.Action: deliver an in-flight packet (arg) to the
// endpoint's device. Links schedule delivery to devices that are not
// Pipelined through this instead of a closure, so delivery allocates
// nothing.
func (ep *Endpoint) RunEvent(arg any, _ int64) {
	ep.Dev.Receive(arg.(*core.Packet), ep.Port)
}

// linkEnd is an endpoint plus how the link delivers to it, resolved once
// at wiring: a pipelined device's completion action after its delay, or a
// plain Receive on arrival.
type linkEnd struct {
	Endpoint
	delay int64
	class sim.Class
	act   sim.Action
}

func (e *linkEnd) wire(ep Endpoint) {
	e.Endpoint = ep
	e.class, e.act = sim.ClassLinkDeliver, &e.Endpoint
	if p, ok := ep.Dev.(Pipelined); ok {
		e.delay, e.class, e.act = p.Arrival()
	}
}

// Link is a full-duplex wire between two endpoints. Each direction
// serializes packets FIFO at the link bandwidth and delivers them after
// the propagation delay, which is how the simulator realizes the
// switch-to-switch delay components measured in Fig. 11 (serialization +
// on-wire propagation; pipeline latency belongs to the devices).
type Link struct {
	eng  *sim.Engine
	a, b linkEnd

	// BandwidthBps is the line rate in bits per second.
	BandwidthBps int64
	// PropDelay is the one-way propagation delay in nanoseconds.
	PropDelay int64

	freeAB int64 // next time the A->B direction can begin serializing
	freeBA int64

	// Stats
	SentAB, SentBA   uint64
	BytesAB, BytesBA uint64

	// Prof, when set, records every delivery this link schedules as an
	// event hop from PartA to PartB (or the reverse) in the shard-affinity
	// profile. Both endpoints of an edge link (switch↔fabric, host↔switch)
	// are normally assigned the switch's partition, so link hops land on
	// the matrix diagonal; the fabrics record the true cross-partition
	// hops. Nil costs one branch per send.
	Prof         *sim.ShardProfile
	PartA, PartB int
}

// NewLink wires two endpoints with the given line rate and propagation
// delay. Both devices must outlive the link, and a Pipelined device must
// have its pipeline latency configured before it is wired.
func NewLink(eng *sim.Engine, a, b Endpoint, bandwidthBps int64, propDelayNs int64) *Link {
	if bandwidthBps <= 0 {
		panic(fmt.Sprintf("fabric: non-positive bandwidth %d", bandwidthBps))
	}
	l := &Link{eng: eng, BandwidthBps: bandwidthBps, PropDelay: propDelayNs}
	l.a.wire(a)
	l.b.wire(b)
	return l
}

// SerializationDelay returns the time to put size bytes on this wire.
func (l *Link) SerializationDelay(size int32) int64 {
	return serDelay(size, l.BandwidthBps)
}

func serDelay(size int32, bps int64) int64 {
	return int64(size) * 8 * 1e9 / bps
}

// Send transmits pkt from the `from` device toward the other side. The
// wire enforces FIFO line-rate serialization per direction, so senders
// that overrun the line rate are naturally queued on the wire clock.
func (l *Link) Send(from Device, pkt *core.Packet) { l.send(from, pkt, l.eng.Now(), false) }

// send reserves the wire in the `from` direction for pkt, no earlier than
// time at (>= now), and schedules the delivery. A cut-through send adds no
// serialization delay to the arrival time (the bits are already streaming
// — the sender is a bufferless waveguide relaying an in-flight packet),
// but still reserves the wire for the full serialization time so line
// rate is never exceeded. The optical fabric sends cut-through with a
// future at: it reserves its egress wire when a packet enters, for the
// instant the packet leaves its cut-through pipeline.
func (l *Link) send(from Device, pkt *core.Packet, at int64, cutThrough bool) {
	ser := l.SerializationDelay(pkt.Size)
	var to *linkEnd
	var free *int64
	switch from {
	case l.a.Dev:
		to, free = &l.b, &l.freeAB
		l.SentAB++
		l.BytesAB += uint64(pkt.Size)
	case l.b.Dev:
		to, free = &l.a, &l.freeBA
		l.SentBA++
		l.BytesBA += uint64(pkt.Size)
	default:
		panic("fabric: Send from a device not on this link")
	}
	start := at
	if *free > start {
		start = *free
	}
	*free = start + ser
	arrive := start + ser + l.PropDelay
	if cutThrough {
		arrive = start + l.PropDelay
	}
	t := arrive + to.delay
	if l.Prof != nil {
		if to == &l.b {
			l.Prof.Record(l.PartA, l.PartB, t-l.eng.Now())
		} else {
			l.Prof.Record(l.PartB, l.PartA, t-l.eng.Now())
		}
	}
	l.eng.AtEvent(t, to.class, to.act, pkt, int64(to.Port))
}
