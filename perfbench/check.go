package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/switchsim"
	"openoptics/internal/traffic"
)

// tableDigest hashes every switch's time-flow entries in table order
// (priority, specificity, insertion) and returns the hash with the total
// entry count. Two builds that compile the same tables share a digest.
func tableDigest(n *openoptics.Net) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	total := 0
	for _, sw := range n.Switches() {
		put(uint64(sw.ID()))
		es := sw.Table().Entries()
		total += len(es)
		put(uint64(len(es)))
		for _, e := range es {
			put(uint64(e.Priority))
			put(uint64(e.Match.ArrSlice))
			put(uint64(e.Match.Src))
			put(uint64(e.Match.Dst))
			put(uint64(e.Mode))
			put(uint64(len(e.Actions)))
			for _, a := range e.Actions {
				put(uint64(a.Egress))
				put(uint64(a.DepSlice))
				put(math.Float64bits(a.Weight))
				put(uint64(len(a.SourceRoute)))
				for _, hop := range a.SourceRoute {
					put(uint64(hop.Egress))
					put(uint64(hop.DepSlice))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), total
}

// simCounts is everything a run simulates. It is a pure function of the
// workload and seed: every run of one seed must produce the same value,
// traced or not.
type simCounts struct {
	Digest        string
	TableEntries  int
	FlowsStarted  uint64
	FlowsDone     int
	FCTP50Ns      float64
	FCTP99Ns      float64
	HostTx        uint64
	HostRx        uint64
	UplinkTx      uint64
	Switch        switchsim.Counters
	OpticalFwd    uint64
	DropsGuard    uint64
	DropsNoCirc   uint64
	DropsReconfig uint64
	ElecFwd       uint64
	ElecDrops     uint64
	Pool          core.PoolStats
	Events        uint64
	MaxWheel      int
	OverflowPush  uint64
	Retransmits   uint64
	Epochs        uint64
	Reconfigs     uint64
}

func countSim(sc *scenario, digest string, entries int) simCounts {
	n := sc.net
	fct := sc.sink.FCTSample(traffic.PortReplay)
	c := simCounts{
		Digest:       digest,
		TableEntries: entries,
		FlowsStarted: sc.replay.Started,
		FlowsDone:    fct.N(),
		FCTP50Ns:     fct.Percentile(50),
		FCTP99Ns:     fct.Percentile(99),
		Switch:       n.Counters(),
		Pool:         n.PacketPool().Stats(),
		Events:       n.Engine().Processed,
		Reconfigs:    n.Reconfigs(),
	}
	for _, h := range n.Hosts() {
		c.HostTx += h.Counters.TxPkts
		c.HostRx += h.Counters.RxPkts
	}
	for _, sw := range n.Switches() {
		for _, p := range sw.Snapshot().Ports {
			if p.Kind == "uplink" {
				c.UplinkTx += p.TxPkts
			}
		}
	}
	of := n.OpticalFabric()
	c.OpticalFwd, c.DropsGuard, c.DropsNoCirc, c.DropsReconfig = of.Forwarded, of.DropsGuard, of.DropsNoCircuit, of.DropsReconfig
	if ef := n.ElectricalFabric(); ef != nil {
		c.ElecFwd, c.ElecDrops = ef.Forwarded, ef.DropsQueue+ef.DropsNoRoute
	}
	p := n.Engine().SchedPressure()
	c.MaxWheel, c.OverflowPush = p.MaxWheelEvents, p.OverflowPushes
	for _, ep := range n.Endpoints() {
		c.Retransmits += ep.Stack.Counters.Retransmissions
	}
	if sc.ctrl != nil {
		c.Epochs = sc.ctrl.Stats().Epochs
	}
	return c
}

func (c simCounts) drops() uint64 {
	return c.Switch.Drops() + c.DropsGuard + c.DropsNoCirc + c.DropsReconfig + c.ElecDrops
}

// conservation recomputes packet conservation from the public counters
// and returns every law the run broke. Hosts and switches are the only
// packet sources, so the packets switches made themselves (signals,
// push-backs, relay copies) are the pool's gets less the hosts' sends.
//
//   - The pool: every packet ever taken is back or still live,
//     gets = puts + outstanding.
//   - Switches: what they received or made and did not transmit or drop
//     is still held in a pipeline or queue, so
//     0 ≤ rx + made − tx − drops ≤ outstanding.
//   - Into the fabrics: what switch uplinks sent is forwarded, dropped, or
//     still on a link, so 0 ≤ uplink tx − (forwarded + drops) ≤ outstanding.
//   - Into the switches: receptions come from hosts or the fabrics, so
//     0 ≤ host tx + forwarded − switch rx ≤ outstanding.
//   - Into the hosts: host receptions were delivered or made by a switch.
//   - Flows: completed ≤ started.
func conservation(c simCounts) []string {
	var bad []string
	live := int64(c.Pool.Outstanding)
	within := func(law string, v int64) {
		if v < 0 || v > live {
			bad = append(bad, fmt.Sprintf("%s = %d, want 0..%d (outstanding)", law, v, live))
		}
	}
	if c.Pool.Gets != c.Pool.Puts+uint64(c.Pool.Outstanding) {
		bad = append(bad, fmt.Sprintf("pool gets %d != puts %d + outstanding %d", c.Pool.Gets, c.Pool.Puts, c.Pool.Outstanding))
	}
	made := int64(c.Pool.Gets) - int64(c.HostTx)
	if made < 0 {
		bad = append(bad, fmt.Sprintf("hosts sent %d packets but the pool handed out only %d", c.HostTx, c.Pool.Gets))
	}
	sw := c.Switch
	within("switch rx + made - tx - drops", int64(sw.RxPkts)+made-int64(sw.TxPkts)-int64(sw.Drops()))
	fabIn := c.OpticalFwd + c.DropsGuard + c.DropsNoCirc + c.DropsReconfig + c.ElecFwd + c.ElecDrops
	within("uplink tx - fabric (forwarded + drops)", int64(c.UplinkTx)-int64(fabIn))
	within("host tx + fabric forwarded - switch rx", int64(c.HostTx+c.OpticalFwd+c.ElecFwd)-int64(sw.RxPkts))
	if int64(c.HostRx) > int64(sw.Delivered)+made {
		bad = append(bad, fmt.Sprintf("hosts received %d > %d delivered + %d made by switches", c.HostRx, sw.Delivered, made))
	}
	if uint64(c.FlowsDone) > c.FlowsStarted {
		bad = append(bad, fmt.Sprintf("flows done %d > started %d", c.FlowsDone, c.FlowsStarted))
	}
	if c.FlowsDone == 0 || c.HostTx == 0 || c.Events == 0 {
		bad = append(bad, fmt.Sprintf("empty run: %d flows done, %d packets sent, %d events", c.FlowsDone, c.HostTx, c.Events))
	}
	return bad
}
