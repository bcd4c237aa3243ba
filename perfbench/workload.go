package main

import (
	"fmt"
	"time"

	"openoptics"
	"openoptics/internal/arch"
	"openoptics/internal/core"
	"openoptics/internal/demand"
	"openoptics/internal/routing"
	"openoptics/internal/traffic"
)

// Fixed workload parameters shared by every workload.
const (
	load           = 0.3 // rpc replay load, fraction of aggregate host line rate
	collectEvery   = time.Millisecond
	reprogramEvery = 2 * time.Millisecond
	drainNs        = 5_000
)

// workload is one benchmark input set: an architecture at a size, fed
// open-loop Poisson rpc flow arrivals in virtual time.
type workload struct {
	Name  string
	Nodes int
	// Arrive is the virtual span over which flows arrive; the network then
	// runs Arrive*5/4 so late flows can drain, as oosim does.
	Arrive time.Duration
	// Demand selects the demand-aware architecture (HOHO source routing
	// plus the collect → predict → reprogram loop) instead of RotorNet
	// with VLB per-hop routing.
	Demand   bool
	HotFrac  float64
	HotPairs int
	// Inputs is how many input seeds one benchmark run covers. Demand-aware
	// FCTs swing ~20% from seed to seed, so that workload pools its FCT
	// samples over several seeds; see README.md.
	Inputs int
}

var workloads = []workload{
	{Name: "rotor16-rpc", Nodes: 16, Arrive: 40 * time.Millisecond},
	{Name: "rotor64-compile", Nodes: 64, Arrive: 8 * time.Millisecond},
	{Name: "daware12-reprogram", Nodes: 12, Arrive: 20 * time.Millisecond,
		Demand: true, HotFrac: 0.5, HotPairs: 2, Inputs: 6},
}

// inputSeed is the seed of the j-th input of a run with benchmark seed
// seed. Input 0 is the benchmark seed itself; the stride keeps the inputs
// of runs with nearby seeds apart.
func inputSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<20 }

func (w workload) inputs() int { return max(1, w.Inputs) }

func findWorkload(name string, toy bool) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			if toy {
				w = w.toy()
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload to a size the self-test runs in well under a
// second, keeping its architecture and control loop.
func (w workload) toy() workload {
	w.Nodes = max(6, w.Nodes/4)
	w.Inputs = min(w.Inputs, 2)
	w.Arrive = 2 * time.Millisecond
	if w.Demand {
		w.Arrive = 6 * time.Millisecond
	}
	return w
}

func (w workload) window() time.Duration { return w.Arrive + w.Arrive/4 }

func (w workload) describe() string {
	a := "rotornet-vlb"
	if w.Demand {
		a = fmt.Sprintf("daware aware/last, collect %v, epoch %v, drain %d ns, hot_frac %g, hot_pairs %d",
			collectEvery, reprogramEvery, drainNs, w.HotFrac, w.HotPairs)
	}
	return fmt.Sprintf("%s: %d ToRs, %s, rpc load %g, arrivals over %v, run %v virtual, %d input seed(s) per run",
		w.Name, w.Nodes, a, load, w.Arrive, w.window(), w.inputs())
}

// scenario is a built network, ready to run.
type scenario struct {
	net    *openoptics.Net
	inst   *arch.Instance     // set by the untraced build
	ctrl   *demand.Controller // set for demand-aware workloads
	sink   *traffic.Sink
	replay *traffic.Replay
	paths  int // routing paths generated (traced build only)
}

func (w workload) archOptions(seed uint64) arch.Options {
	return arch.Options{Nodes: w.Nodes, HostsPerNode: 1, Seed: seed}
}

// buildArch builds the network the way users do, through internal/arch.
func (w workload) buildArch(seed uint64) (*scenario, error) {
	o := w.archOptions(seed)
	var in *arch.Instance
	var err error
	if w.Demand {
		in, err = arch.DemandAware(o, arch.DemandConfig{
			Policy: "aware", Predictor: "last",
			CollectEvery: collectEvery, ReprogramEvery: reprogramEvery, DrainNs: drainNs,
		})
	} else {
		in, err = arch.RotorNet(o, arch.SchemeVLB)
	}
	if err != nil {
		return nil, err
	}
	sc := &scenario{net: in.Net, inst: in, ctrl: in.Demand}
	return sc, w.startTraffic(sc, seed, nil)
}

// buildTraced builds the same network as buildArch from the Table 1
// primitives, with a span around each call so setup splits by layer.
// The compiled-table digest pins the two builds to each other.
func (w workload) buildTraced(seed uint64, tr *tracer) (*scenario, error) {
	o := w.archOptions(seed)
	cfg := openoptics.Config{
		Node: "rack", NodeNum: o.Nodes, Uplink: 1, HostsPerNode: o.HostsPerNode,
		SliceDurationNs: 100_000, LineRateGbps: 100, Seed: o.Seed,
	}
	var n *openoptics.Net
	var err error
	tr.span("net.New", func() { n, err = openoptics.New(cfg) })
	if err != nil {
		return nil, err
	}
	var circuits []core.Circuit
	var numSlices int
	tr.span("topo.RoundRobin", func() { circuits, numSlices, err = openoptics.RoundRobin(o.Nodes, n.Cfg.Uplink) })
	if err != nil {
		return nil, err
	}
	tr.span("controller.DeployTopo", func() { err = n.DeployTopo(circuits, numSlices) })
	if err != nil {
		return nil, err
	}
	var paths []core.Path
	lookup, mp := core.LookupHop, core.MultipathPacket
	if w.Demand {
		lookup, mp = core.LookupSource, core.MultipathNone
		tr.span("routing.HOHO", func() { paths = n.HOHO(circuits, numSlices, o.Routing) })
	} else {
		tr.span("routing.VLB", func() { paths = n.VLB(circuits, numSlices, o.Routing) })
	}
	tr.span("controller.DeployRouting", func() { err = n.DeployRouting(paths, lookup, mp) })
	if err != nil {
		return nil, err
	}
	sc := &scenario{net: n, paths: len(paths)}
	if w.Demand {
		policy, err := demand.NewPolicy("aware")
		if err != nil {
			return nil, err
		}
		pred, err := demand.NewPredictor("last")
		if err != nil {
			return nil, err
		}
		tr.span("demand.NewController", func() {
			sc.ctrl, err = demand.NewController(n, demand.Config{
				CollectEvery: collectEvery, ReprogramEvery: reprogramEvery,
				Predictor: pred, Policy: policy, DrainNs: drainNs, Routing: routing.Options{},
			})
		})
		if err != nil {
			return nil, err
		}
	}
	return sc, w.startTraffic(sc, seed, tr)
}

// startTraffic attaches the FCT sink and schedules the flow arrivals.
func (w workload) startTraffic(sc *scenario, seed uint64, tr *tracer) error {
	cdf, err := traffic.ByName("rpc")
	if err != nil {
		return err
	}
	tr.span("traffic.NewReplay", func() {
		eps := sc.net.Endpoints()
		sc.sink = traffic.NewSink(eps)
		sc.replay, err = traffic.NewReplay(sc.net.Engine(), eps, cdf, load,
			int64(sc.net.Cfg.LineRateGbps*1e9), seed)
		if err != nil {
			return
		}
		sc.replay.HotFrac = w.HotFrac
		sc.replay.HotPairs = w.HotPairs
		sc.replay.Start(int64(w.Arrive))
	})
	return err
}

// runTraced advances the traced scenario by the workload window with the
// step loop of arch.Instance.Run: one span per Net.Run step and one per
// control tick.
func (w workload) runTraced(sc *scenario, tr *tracer) error {
	if sc.ctrl == nil {
		tr.span("sim.Run", func() { sc.net.Run(w.window()) })
		return nil
	}
	for left := w.window(); left > 0; {
		step := min(collectEvery, left)
		tr.span("sim.Run", func() { sc.net.Run(step) })
		left -= step
		if left > 0 {
			var err error
			epochs := sc.ctrl.Stats().Epochs
			i := tr.span("demand.Tick", func() { err = sc.ctrl.Tick() })
			tr.spans[i].Epoch = sc.ctrl.Stats().Epochs > epochs
			if err != nil {
				return fmt.Errorf("demand tick: %w", err)
			}
		}
	}
	return nil
}
