package arch

import (
	"strings"
	"testing"
	"time"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/traffic"
)

func opts() Options {
	return Options{Nodes: 6, HostsPerNode: 1, Seed: 11, SliceDurationNs: 100_000}
}

// runProbe checks an instance actually delivers traffic end to end.
func runProbe(t *testing.T, in *Instance, srcIdx, dstIdx int) {
	t.Helper()
	eps := in.Net.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(in.Net.Engine(), eps[srcIdx], eps[dstIdx])
	probe.IntervalNs = 50_000
	probe.Start(int64(20 * time.Millisecond))
	if err := in.Run(30 * time.Millisecond); err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	if sink.RTT.N() == 0 {
		t.Fatalf("%s: no probe returned; counters=%+v", in.Name, in.Net.Counters())
	}
}

func TestClos(t *testing.T) {
	in, err := Clos(opts())
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 3)
	if in.Net.OpticalFabric().Forwarded != 0 {
		t.Fatal("clos used the optical fabric")
	}
}

func TestCThrough(t *testing.T) {
	in, err := CThrough(opts())
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 3)
	// The hybrid must have an electrical fabric and a working TA loop.
	if in.Net.ElectricalFabric() == nil {
		t.Fatal("c-through without electrical fabric")
	}
	if in.Reconfigure == nil {
		t.Fatal("c-through without control loop")
	}
	// Drive demand, then reconfigure: circuits should appear.
	eps := in.Net.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[3].Host,
		SrcPort: 99, DstPort: 5001, Proto: core.ProtoTCP}
	eps[0].Stack.OpenTCP(flow, eps[0].Node, eps[3].Node, 5_000_000)
	if err := in.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if in.Net.OpticalFabric().Forwarded == 0 {
		t.Fatal("c-through elephants never used optical circuits")
	}
}

func TestJupiter(t *testing.T) {
	o := opts()
	o.Uplink = 3
	o.ReconfigureEvery = 10 * time.Millisecond
	in, err := Jupiter(o)
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 5)
	if in.Net.ElectricalFabric() != nil {
		t.Fatal("jupiter should be all-optical")
	}
}

func TestMordia(t *testing.T) {
	o := opts()
	o.ReconfigureEvery = 10 * time.Millisecond
	in, err := Mordia(o)
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 4)
	if in.Net.Schedule().NumSlices < 2 {
		t.Fatal("mordia should run a multi-slice schedule")
	}
}

func TestRotorNetSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeVLB, SchemeDirect, SchemeUCMP, SchemeHOHO} {
		in, err := RotorNet(opts(), scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		runProbe(t, in, 0, 3)
	}
	if _, err := RotorNet(opts(), Scheme("bogus")); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestOpera(t *testing.T) {
	in, err := Opera(opts())
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 3)
	// Opera deploys source routing: entries only at sources carry SR.
	sr := false
	for _, e := range in.Net.Switches()[0].Table().Entries() {
		for _, a := range e.Actions {
			if len(a.SourceRoute) > 0 {
				sr = true
			}
		}
	}
	if !sr {
		t.Fatal("opera deployed without source routes")
	}
}

func TestSemiOblivious(t *testing.T) {
	o := opts()
	o.ReconfigureEvery = 15 * time.Millisecond
	in, err := SemiOblivious(o)
	if err != nil {
		t.Fatal(err)
	}
	// Hot pair traffic then a reconfiguration epoch.
	eps := in.Net.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[3].Host,
		SrcPort: 21, DstPort: 5001, Proto: core.ProtoTCP}
	eps[0].Stack.OpenTCP(flow, eps[0].Node, eps[3].Node, 1<<30) // persistent demand
	if err := in.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// After SORN re-skewing, pair 0-3 should hold multiple direct slices.
	ix := core.NewConnIndex(in.Net.Schedule())
	direct := 0
	for ts := 0; ts < in.Net.Schedule().NumSlices; ts++ {
		if _, ok := ix.CircuitBetween(0, 3, core.Slice(ts)); ok {
			direct++
		}
	}
	if direct < 2 {
		t.Fatalf("hot pair holds %d direct slices after SORN, want >= 2", direct)
	}
}

func TestInstanceRunWithoutLoop(t *testing.T) {
	in, err := Clos(opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := in.Net.Engine().Now(); got < int64(5*time.Millisecond) {
		t.Fatalf("engine advanced only to %d", got)
	}
}

func TestShale(t *testing.T) {
	o := opts()
	o.Nodes = 9 // 3x3 grid
	in, err := Shale(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	runProbe(t, in, 0, 8) // opposite grid corner: needs both dimensions
	// The schedule time-multiplexes dimensions: 2 dims x 3 rounds (odd
	// grid side needs s rounds) = 6 slices.
	if got := in.Net.Schedule().NumSlices; got != 6 {
		t.Fatalf("numSlices = %d, want 6", got)
	}
	// Non-square node counts are rejected.
	bad := opts()
	bad.Nodes = 10
	if _, err := Shale(bad, 2); err == nil {
		t.Fatal("non-square grid accepted")
	}
}

// TestCalendarDepthWarning checks the shallow-calendar warning: VLB at 64
// ToRs holds packets up to 62 slices against the default 32 queues, while
// 16 ToRs (15 slices) fits.
func TestCalendarDepthWarning(t *testing.T) {
	in, err := RotorNet(Options{Nodes: 64}, SchemeVLB)
	if err != nil {
		t.Fatal(err)
	}
	ws := in.Warnings()
	if len(ws) != 1 || !strings.HasPrefix(ws[0], "rotornet-vlb: routes demand calendar rank 62 but switches have 32 calendar queues") {
		t.Fatalf("64 ToRs: warnings %q, want one naming rank 62, 32 queues and the architecture", ws)
	}
	if in, err = RotorNet(Options{Nodes: 16}, SchemeVLB); err != nil {
		t.Fatal(err)
	}
	if ws := in.Warnings(); len(ws) != 0 {
		t.Fatalf("16 ToRs: unexpected warnings %q", ws)
	}

	// Offload deeper than the calendar still drops ranks 32..39; offload
	// inside the calendar parks every rank the calendar cannot hold.
	offload := func(rank int) []string {
		in, err := RotorNet(Options{Nodes: 64, Tune: func(c *openoptics.Config) { c.OffloadRank = rank }}, SchemeVLB)
		if err != nil {
			t.Fatal(err)
		}
		return in.Warnings()
	}
	ws = offload(40)
	if len(ws) != 1 || !strings.HasSuffix(ws[0], "32 calendar queues and offload starts at rank 40: packets ranked 32 to 39 are dropped on wrap-around") {
		t.Fatalf("offload rank 40: warnings %q, want one naming ranks 32 to 39", ws)
	}
	if ws := offload(16); len(ws) != 0 {
		t.Fatalf("offload rank 16: unexpected warnings %q", ws)
	}
}
