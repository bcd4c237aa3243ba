// Package arch provides ready-made implementations of the optical DCN
// architectures evaluated in §6 — Clos (electrical baseline), c-Through,
// Jupiter, and Mordia from the TA class; RotorNet (with VLB, direct, UCMP
// or HOHO routing) and Opera from the TO class; plus the semi-oblivious
// TA+TO hybrid — each expressed through the public OpenOptics API exactly
// as the Fig. 5 programs do.
package arch

import (
	"fmt"
	"time"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/demand"
	"openoptics/internal/routing"
)

// Options shapes an architecture instance.
type Options struct {
	// Nodes is the endpoint (ToR) count.
	Nodes int
	// Uplink is the optical uplinks per node (architecture-specific
	// defaults apply when 0).
	Uplink int
	// HostsPerNode is the hosts under each ToR (default 1).
	HostsPerNode int
	// SliceDurationNs for TO schedules (default 100 µs).
	SliceDurationNs int64
	// LineRateGbps for optical uplinks and host NICs (default 100).
	LineRateGbps float64
	// ReconfigureEvery is the TA control-loop period (defaults vary:
	// c-Through 10 ms, Jupiter 1 s, Mordia 10 ms, semi-oblivious 100 ms
	// — scaled-down stand-ins for the paper's seconds-to-hours loops).
	ReconfigureEvery time.Duration
	// Routing tunes path search.
	Routing routing.Options
	// Seed fixes randomness.
	Seed uint64
	// Tune, if set, adjusts the generated Config before the network is
	// built (service knobs, sync error, buffer sizes...).
	Tune func(*openoptics.Config)
}

func (o Options) defaults() Options {
	if o.HostsPerNode <= 0 {
		o.HostsPerNode = 1
	}
	if o.SliceDurationNs <= 0 {
		o.SliceDurationNs = 100_000
	}
	if o.LineRateGbps <= 0 {
		o.LineRateGbps = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Instance is a deployed architecture: the network plus its control loop.
type Instance struct {
	Name string
	Net  *openoptics.Net
	// Reconfigure runs one TA control-loop iteration (nil for TO and
	// static architectures).
	Reconfigure func() error
	// ReconfigureEvery is the loop period.
	ReconfigureEvery time.Duration
	// Demand is the demand-aware controller when the instance runs one
	// (DemandAware), for result harvesting; nil otherwise.
	Demand *demand.Controller
}

// Warnings returns the network's configuration warnings, each naming the
// architecture.
func (in *Instance) Warnings() []string {
	ws := in.Net.Warnings()
	for i, w := range ws {
		ws[i] = in.Name + ": " + w
	}
	return ws
}

// Run advances the instance by d, executing the TA control loop on its
// period — the while(TM=net.collect(...)) shape of Fig. 5.
func (in *Instance) Run(d time.Duration) error {
	if in.Reconfigure == nil || in.ReconfigureEvery <= 0 {
		in.Net.Run(d)
		return nil
	}
	left := d
	for left > 0 {
		step := in.ReconfigureEvery
		if step > left {
			step = left
		}
		in.Net.Run(step)
		left -= step
		if left > 0 {
			if err := in.Reconfigure(); err != nil {
				return fmt.Errorf("arch %s: reconfigure: %w", in.Name, err)
			}
		}
	}
	return nil
}

func baseConfig(o Options) openoptics.Config {
	return openoptics.Config{
		Node:            "rack",
		NodeNum:         o.Nodes,
		Uplink:          maxInt(o.Uplink, 1),
		HostsPerNode:    o.HostsPerNode,
		SliceDurationNs: o.SliceDurationNs,
		LineRateGbps:    o.LineRateGbps,
		Seed:            o.Seed,
	}
}

func buildNet(o Options, cfg openoptics.Config) (*openoptics.Net, error) {
	if o.Tune != nil {
		o.Tune(&cfg)
	}
	// Telemetry attachment happens inside openoptics.New via the
	// package-level openoptics.Observe hook.
	return openoptics.New(cfg)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clos is the traditional electrical baseline (Fat-tree class): a static
// packet-switched fabric at full line rate, classic flow-table routing.
func Clos(o Options) (*Instance, error) {
	o = o.defaults()
	cfg := baseConfig(o)
	cfg.ElectricalGbps = o.LineRateGbps
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	paths, err := n.ElectricalPaths()
	if err != nil {
		return nil, err
	}
	if err := n.DeployRouting(paths, core.LookupHop, core.MultipathNone); err != nil {
		return nil, err
	}
	return &Instance{Name: "clos", Net: n}, nil
}

// CThrough is the TA-1 electrical/optical hybrid: mice ride a rate-limited
// electrical network; the control loop collects the TM, schedules circuits
// with Edmonds matching, and deploys direct optical routes at a higher
// priority. Hosts run flow pausing so elephants wait for their circuits.
func CThrough(o Options) (*Instance, error) {
	o = o.defaults()
	if o.ReconfigureEvery <= 0 {
		o.ReconfigureEvery = 10 * time.Millisecond
	}
	cfg := baseConfig(o)
	cfg.ElectricalGbps = 10 // the original design's rate-limited static net
	cfg.FlowPausing = true
	cfg.ReportIntervalNs = int64(o.ReconfigureEvery) / 4
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	elec, err := n.ElectricalPaths()
	if err != nil {
		return nil, err
	}
	if err := n.DeployRoutingLayer(0, elec, core.LookupHop, core.MultipathNone); err != nil {
		return nil, err
	}
	in := &Instance{Name: "c-through", Net: n, ReconfigureEvery: o.ReconfigureEvery}
	in.Reconfigure = func() error {
		tm := n.Collect(0)
		if tm.Total() == 0 {
			return nil
		}
		circuits, err := openoptics.Edmonds(tm, n.Cfg.Uplink)
		if err != nil {
			return err
		}
		if err := n.DeployTopo(circuits, 1); err != nil {
			return err
		}
		paths := n.Direct(circuits, 1, o.Routing)
		return n.DeployRoutingLayer(1, paths, core.LookupHop, core.MultipathNone)
	}
	return in, nil
}

// Jupiter is the TA-2 architecture (Fig. 5 b): an all-optical static
// topology starting from a uniform mesh with WCMP routing; the control
// loop gradually evolves the topology toward the observed TM, deploying
// routing before the topology so traffic shifts seamlessly.
func Jupiter(o Options) (*Instance, error) {
	o = o.defaults()
	if o.Uplink <= 0 {
		o.Uplink = 3
	}
	if o.ReconfigureEvery <= 0 {
		o.ReconfigureEvery = time.Second
	}
	cfg := baseConfig(o)
	cfg.Uplink = o.Uplink
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	circuits, err := openoptics.Jupiter(nil, nil, o.Nodes, o.Uplink, 0)
	if err != nil {
		return nil, err
	}
	if err := n.DeployTopo(circuits, 1); err != nil {
		return nil, err
	}
	paths := n.WCMP(circuits, o.Routing)
	if err := n.DeployRouting(paths, core.LookupHop, core.MultipathFlow); err != nil {
		return nil, err
	}
	prev := circuits
	in := &Instance{Name: "jupiter", Net: n, ReconfigureEvery: o.ReconfigureEvery}
	in.Reconfigure = func() error {
		tm := n.Collect(0)
		next, err := openoptics.Jupiter(tm, prev, o.Nodes, o.Uplink, 0)
		if err != nil {
			return err
		}
		// Routing first, then topology (the Fig. 5 b ordering).
		if err := n.DeployTopo(next, 1); err != nil {
			return err
		}
		paths := n.WCMP(next, o.Routing)
		if err := n.DeployRouting(paths, core.LookupHop, core.MultipathFlow); err != nil {
			return err
		}
		prev = next
		return nil
	}
	return in, nil
}

// Mordia is the TA architecture with microsecond circuit scheduling: the
// control loop decomposes the TM with Birkhoff–von-Neumann into an optical
// schedule whose slice counts mirror the matching weights; traffic rides
// direct circuits in their slices.
func Mordia(o Options) (*Instance, error) {
	o = o.defaults()
	if o.ReconfigureEvery <= 0 {
		o.ReconfigureEvery = 10 * time.Millisecond
	}
	cfg := baseConfig(o)
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	numSlices := o.Nodes - 1
	if o.Nodes%2 == 1 {
		numSlices = o.Nodes
	}
	deploy := func(tm core.TM) error {
		circuits, ns, err := openoptics.BvN(tm, numSlices, numSlices)
		if err != nil {
			return err
		}
		if err := n.DeployTopo(circuits, ns); err != nil {
			return err
		}
		paths := n.Direct(circuits, ns, o.Routing)
		return n.DeployRouting(paths, core.LookupHop, core.MultipathNone)
	}
	if err := deploy(core.NewTM(o.Nodes)); err != nil {
		return nil, err
	}
	in := &Instance{Name: "mordia", Net: n, ReconfigureEvery: o.ReconfigureEvery}
	in.Reconfigure = func() error { return deploy(n.Collect(0)) }
	return in, nil
}

// Scheme selects the routing run on top of a TO schedule.
type Scheme string

// RotorNet/Opera routing schemes.
const (
	SchemeVLB    Scheme = "vlb"
	SchemeDirect Scheme = "direct"
	SchemeUCMP   Scheme = "ucmp"
	SchemeHOHO   Scheme = "hoho"
	SchemeOpera  Scheme = "opera"
)

// RotorNet is the TO architecture of Fig. 5 (a): a single-dimensional
// round-robin optical schedule with the chosen routing scheme (native VLB
// with per-packet spraying by default).
func RotorNet(o Options, scheme Scheme) (*Instance, error) {
	o = o.defaults()
	cfg := baseConfig(o)
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	circuits, numSlices, err := openoptics.RoundRobin(o.Nodes, n.Cfg.Uplink)
	if err != nil {
		return nil, err
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		return nil, err
	}
	var paths []core.Path
	lookup := core.LookupHop
	mp := core.MultipathPacket
	switch scheme {
	case SchemeVLB, "":
		paths = n.VLB(circuits, numSlices, o.Routing)
	case SchemeDirect:
		paths = n.Direct(circuits, numSlices, o.Routing)
		mp = core.MultipathNone
	case SchemeUCMP:
		paths = n.UCMP(circuits, numSlices, o.Routing)
		lookup = core.LookupSource
	case SchemeHOHO:
		paths = n.HOHO(circuits, numSlices, o.Routing)
		lookup = core.LookupSource
		mp = core.MultipathNone
	default:
		return nil, fmt.Errorf("arch: rotornet does not support scheme %q", scheme)
	}
	if err := n.DeployRouting(paths, lookup, mp); err != nil {
		return nil, err
	}
	return &Instance{Name: "rotornet-" + string(scheme), Net: n}, nil
}

// Opera is the TO architecture with expander slices: k uplinks per node
// make every slice topology connected, so packets take always-available
// multi-hop paths inside the current slice, deployed with source routing
// (the lookup mode the original design requires).
func Opera(o Options) (*Instance, error) {
	o = o.defaults()
	if o.Uplink <= 0 {
		o.Uplink = 2
	}
	cfg := baseConfig(o)
	cfg.Uplink = o.Uplink
	if cfg.Response == "" {
		cfg.Response = "trim" // Opera's native congestion reaction
	}
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	circuits, numSlices, err := openoptics.RoundRobin(o.Nodes, o.Uplink)
	if err != nil {
		return nil, err
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		return nil, err
	}
	ro := o.Routing
	if ro.MaxHop == 0 {
		ro.MaxHop = 6
	}
	paths := n.Opera(circuits, numSlices, ro)
	if err := n.DeployRouting(paths, core.LookupSource, core.MultipathPacket); err != nil {
		return nil, err
	}
	return &Instance{Name: "opera", Net: n}, nil
}

// Shale is the multi-dimensional TO architecture: nodes form an h-dim
// grid and the optical schedule round-robins within one dimension at a
// time (single uplink per node). Routing uses HOHO-style earliest paths
// across the time-expanded grid — packets hop dimension by dimension.
// Node counts must be a perfect h-th power.
func Shale(o Options, dims int) (*Instance, error) {
	o = o.defaults()
	if dims < 2 {
		dims = 2
	}
	cfg := baseConfig(o)
	cfg.Uplink = 1
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	circuits, numSlices, err := openoptics.RoundRobinDim(o.Nodes, dims, 1)
	if err != nil {
		return nil, err
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		return nil, err
	}
	ro := o.Routing
	if ro.MaxHop == 0 {
		ro.MaxHop = dims + 1
	}
	paths := n.HOHO(circuits, numSlices, ro)
	if err := n.DeployRouting(paths, core.LookupSource, core.MultipathNone); err != nil {
		return nil, err
	}
	return &Instance{Name: fmt.Sprintf("shale-%dd", dims), Net: n}, nil
}

// SemiOblivious is the TA+TO hybrid of Fig. 5 (c): it starts as a plain
// round-robin TO network with VLB and periodically re-skews the optical
// schedule toward the observed TM with SORN.
func SemiOblivious(o Options) (*Instance, error) {
	o = o.defaults()
	if o.ReconfigureEvery <= 0 {
		o.ReconfigureEvery = 100 * time.Millisecond
	}
	cfg := baseConfig(o)
	n, err := buildNet(o, cfg)
	if err != nil {
		return nil, err
	}
	circuits, numSlices, err := openoptics.RoundRobin(o.Nodes, n.Cfg.Uplink)
	if err != nil {
		return nil, err
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		return nil, err
	}
	paths := n.VLB(circuits, numSlices, o.Routing)
	if err := n.DeployRouting(paths, core.LookupHop, core.MultipathPacket); err != nil {
		return nil, err
	}
	sliceCap := n.Cfg.LineRateGbps * 1e9 / 8 * float64(o.SliceDurationNs) / 1e9
	in := &Instance{Name: "semi-oblivious", Net: n, ReconfigureEvery: o.ReconfigureEvery}
	in.Reconfigure = func() error {
		tm := n.Collect(0)
		cts, ns, err := openoptics.SORN(tm, o.Nodes, n.Cfg.Uplink, sliceCap)
		if err != nil {
			return err
		}
		// Topology first: the controller validates routing against the
		// deployed schedule, and both deployments land at the same
		// virtual instant, so no packet observes the intermediate state.
		if err := n.DeployTopo(cts, ns); err != nil {
			return err
		}
		paths := n.VLB(cts, ns, o.Routing)
		return n.DeployRouting(paths, core.LookupHop, core.MultipathPacket)
	}
	return in, nil
}
