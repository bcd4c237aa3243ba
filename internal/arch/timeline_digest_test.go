package arch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"testing"
	"time"

	"openoptics/internal/fabric"
	"openoptics/internal/traffic"
	"openoptics/internal/transport"
)

// goldenTimelines pins what packets do in time, not how many events the
// engine spends on it. Each line is "<case> <sha256> <flows>". A change
// to the event loop or a device handler that moves one per-hop timestamp,
// one flow completion or one end-of-run counter fails here.
const goldenTimelines = "../../testdata/timeline/digests.txt"

type timelineCase struct {
	name    string
	build   func() (*Instance, error)
	hot     bool          // half the flows on two hot node pairs
	traffic time.Duration // flow arrivals stop here
	end     time.Duration // total run; every packet must be home by then
	// covers names the device path the case exists to exercise, and hit
	// checks the run took it, so a retuned case cannot silently lose it.
	covers string
	hit    func(*Instance) bool
}

func timelineCases() []timelineCase {
	o16 := Options{Nodes: 16, Seed: 7}
	ta := o16
	ta.ReconfigureEvery = 5 * time.Millisecond
	// Every run ends 50 µs into a 100 µs slice: circuit signals (2 µs
	// before a boundary) and c-Through's host reports (every 1.25 ms) are
	// then never in flight, so the counters are read with the network
	// empty.
	optical := func(in *Instance) bool { return in.Net.OpticalFabric().Forwarded > 0 }
	elec := func(in *Instance) bool { return in.Net.ElectricalFabric().Forwarded > 0 }
	// Rotor TCP flows have a long retransmission tail, hence the long
	// drains.
	return []timelineCase{
		{name: "rotornet-vlb-16", build: func() (*Instance, error) { return RotorNet(o16, SchemeVLB) },
			traffic: time.Millisecond, end: 3*time.Second + 50*time.Microsecond,
			covers: "optical cut-through", hit: optical},
		{name: "daware-12", build: func() (*Instance, error) {
			return DemandAware(Options{Nodes: 12, Seed: 7}, DemandConfig{DrainNs: 5000})
		}, hot: true, traffic: 4 * time.Millisecond, end: time.Second + 50*time.Microsecond,
			covers: "hot-swap drain drops",
			hit:    func(in *Instance) bool { return in.Net.OpticalFabric().DropsReconfig > 0 }},
		{name: "clos-16", build: func() (*Instance, error) { return Clos(o16) },
			traffic: 2 * time.Millisecond, end: 10*time.Millisecond + 50*time.Microsecond,
			covers: "the electrical fabric", hit: elec},
		{name: "c-through-16", build: func() (*Instance, error) { return CThrough(ta) },
			traffic: 6 * time.Millisecond, end: 100*time.Millisecond + 50*time.Microsecond,
			covers: "both fabrics", hit: func(in *Instance) bool { return optical(in) && elec(in) }},
	}
}

// timelineRun drives one case with rpc flows at load 0.3, traces a
// quarter of the flows, runs until the network has drained, and returns
// the run's digest and completed-flow count. The digest covers, in order:
// the trace JSONL (every traced packet's per-hop timestamps and
// disposition), every flow completion in completion order, and the
// end-of-run counters of every switch, host, transport stack, link and
// fabric.
func timelineRun(t *testing.T, c timelineCase) (string, int) {
	t.Helper()
	in, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	n := in.Net
	traceH, fctH := sha256.New(), sha256.New()
	tr := n.Tracer(0.25)
	tr.SetSink(traceH)
	eps := n.Endpoints()
	flows := 0
	for _, ep := range eps {
		ep.Stack.OnFlowComplete = func(fc transport.FlowComplete) {
			flows++
			fmt.Fprintf(fctH, "%v %d %d %d\n", fc.Flow, fc.Bytes, fc.Start, fc.End)
		}
	}
	cdf, err := traffic.ByName("rpc")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := traffic.NewReplay(n.Engine(), eps, cdf, 0.3, int64(n.Cfg.LineRateGbps*1e9), 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.hot {
		rp.HotFrac = 0.5
		rp.HotPairs = 2
	}
	rp.Start(int64(c.traffic))
	if err := in.Run(c.end); err != nil {
		t.Fatal(err)
	}
	if st := n.PacketPool().Stats(); st.Outstanding != 0 {
		t.Fatalf("network not drained at %v: %d packets outstanding", c.end, st.Outstanding)
	}
	if flows == 0 || uint64(flows) != rp.Started {
		t.Fatalf("%d of %d flows completed by %v", flows, rp.Started, c.end)
	}
	if tr.Stats().Finished == 0 {
		t.Fatal("no packet traces finished")
	}
	if !c.hit(in) {
		t.Fatalf("run no longer exercises %s", c.covers)
	}

	h := sha256.New()
	h.Write(traceH.Sum(nil))
	h.Write(fctH.Sum(nil))
	writeCounters(h, in)
	return hex.EncodeToString(h.Sum(nil)), flows
}

// writeCounters renders every device's end-of-run counters into h.
func writeCounters(h hash.Hash, in *Instance) {
	n := in.Net
	fmt.Fprintf(h, "now %d\n", n.Engine().Now())
	link := func(l *fabric.Link) {
		fmt.Fprintf(h, " link %d %d %d %d", l.SentAB, l.SentBA, l.BytesAB, l.BytesBA)
	}
	for _, sw := range n.Switches() {
		fmt.Fprintf(h, "switch %d %+v buf %d", sw.ID(), sw.Counters, sw.MaxBufferUsage())
		sw.ForEachLink(link)
		h.Write([]byte{'\n'})
	}
	for i, hs := range n.Hosts() {
		fmt.Fprintf(h, "host %d %+v\n", i, hs.Counters)
	}
	for i, ep := range n.Endpoints() {
		fmt.Fprintf(h, "stack %d %+v\n", i, ep.Stack.Counters)
	}
	of := n.OpticalFabric()
	fmt.Fprintf(h, "optical %d %d %d %d\n", of.Forwarded, of.DropsGuard, of.DropsNoCircuit, of.DropsReconfig)
	if ef := n.ElectricalFabric(); ef != nil {
		fmt.Fprintf(h, "electrical %d %d %d\n", ef.Forwarded, ef.DropsQueue, ef.DropsNoRoute)
	}
	st := n.PacketPool().Stats()
	fmt.Fprintf(h, "pool %d %d\n", st.Gets, st.Puts)
	if in.Demand != nil {
		fmt.Fprintf(h, "demand %d %d\n", in.Demand.Stats().Epochs, n.Reconfigs())
	}
}

// TestPacketTimelineDigests replays fixed-seed traffic on four
// architectures — a rotor with VLB, the demand-aware rotor with hot-swap
// drain drops, the electrical Clos and the c-Through hybrid — and compares
// each run's packet timeline digest with the committed golden. Goldens
// move only with a deliberate change to packet timing.
func TestPacketTimelineDigests(t *testing.T) {
	golden := loadGoldens(t, goldenTimelines)
	for _, c := range timelineCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled || testing.Short() {
				t.Skip("timeline runs skipped under -race and -short")
			}
			sum, flows := timelineRun(t, c)
			got := sum + " " + strconv.Itoa(flows)
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no golden for %s; computed line:\n%s %s", c.name, c.name, got)
			}
			if got != want {
				t.Fatalf("packet timeline moved:\n got %s %s\nwant %s %s", c.name, got, c.name, want)
			}
		})
	}
}

// TestTimelineGoldensCoverCases keeps the golden file and the case list
// in step.
func TestTimelineGoldensCoverCases(t *testing.T) {
	golden := loadGoldens(t, goldenTimelines)
	names := make(map[string]bool)
	for _, c := range timelineCases() {
		names[c.name] = true
		if _, ok := golden[c.name]; !ok {
			t.Errorf("%s: no golden for case %q", goldenTimelines, c.name)
		}
	}
	for name := range golden {
		if !names[name] {
			t.Errorf("%s: golden %q has no case", goldenTimelines, name)
		}
	}
}
