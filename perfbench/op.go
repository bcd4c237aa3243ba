package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"openoptics/internal/traffic"
)

// opResult is what one workload run reports back to the parent process.
type opResult struct {
	Seed   uint64  `json:"seed"`
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// WallS is setup plus run; for a traced run it is the root span less
	// the benchmark's own digest and counter spans.
	WallS    float64            `json:"wall_s"`
	Sim      simCounts          `json:"sim"`
	FCTNs    []float64          `json:"fct_ns,omitempty"` // untraced runs only
	Layer    map[string]float64 `json:"layer,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// workerMain runs one workload run in this process and writes its
// opResult as JSON to out.
func workerMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench worker", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "input seed")
	traced := fs.Bool("traced", false, "build from primitives with spans")
	toy := fs.Bool("toy", false, "self-test scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name, *toy)
	if err != nil {
		return err
	}
	var res *opResult
	if *traced {
		res, err = runTracedOp(w, *seed)
	} else {
		res, err = runOp(w, *seed)
	}
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", w.Name, *seed, err)
	}
	res.Seed = *seed
	return json.NewEncoder(out).Encode(res)
}

// runOp is the untraced run: it builds through internal/arch, as users
// do, and times setup and run with the wall clock alone.
func runOp(w workload, seed uint64) (*opResult, error) {
	t0 := time.Now()
	sc, err := w.buildArch(seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	digest, entries := tableDigest(sc.net)
	t1 := time.Now()
	if err := sc.inst.Run(w.window()); err != nil {
		return nil, err
	}
	run := time.Since(t1)
	res := &opResult{SetupS: setup.Seconds(), RunS: run.Seconds(), WallS: (setup + run).Seconds()}
	res.Sim = countSim(sc, digest, entries)
	fct := sc.sink.FCTSample(traffic.PortReplay)
	for _, p := range fct.CDF(fct.N()) {
		res.FCTNs = append(res.FCTNs, p.V)
	}
	res.Problems = conservation(res.Sim)
	return res, nil
}

// runTracedOp is the traced run: the same network built from the Table 1
// primitives, with a span around every call into a layer.
func runTracedOp(w workload, seed uint64) (*opResult, error) {
	tr := newTracer("bench." + w.Name)
	sc, err := w.buildTraced(seed, tr)
	if err != nil {
		return nil, err
	}
	var digest string
	var entries int
	tr.span("bench.digest", func() { digest, entries = tableDigest(sc.net) })
	if err := w.runTraced(sc, tr); err != nil {
		return nil, err
	}
	res := &opResult{Traced: true}
	tr.span("bench.count", func() { res.Sim = countSim(sc, digest, entries) })
	tr.end()
	res.Spans = tr.spans
	res.Problems = conservation(res.Sim)

	spans := tr.spans
	bench, _ := sumSpans(spans, span.isBench)
	res.RunS, _ = sumSpans(spans, span.isRunStep)
	res.WallS = spans[0].dur() - bench
	res.SetupS = res.WallS - res.RunS
	res.Layer = layerMetrics(spans, res.Sim, sc.paths)
	return res, nil
}

// layerMetrics derives the per-layer metrics of one traced run from its
// spans and counters.
func layerMetrics(spans []span, c simCounts, paths int) map[string]float64 {
	named := func(name string) func(span) bool { return func(s span) bool { return s.Name == name } }
	layer := func(l string) func(span) bool { return func(s span) bool { return s.layer() == l } }
	secs := func(keep func(span) bool) float64 { v, _ := sumSpans(spans, keep); return v }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }

	routingS, routingAlloc := sumSpans(spans, layer("routing"))
	deployRouting := secs(named("controller.DeployRouting"))
	tickS := secs(named("demand.Tick"))
	loopS := secs(named("sim.Run"))
	_, runAlloc := sumSpans(spans, span.isRunStep)
	_, setupAlloc := sumSpans(spans, func(s span) bool { return !s.isRunStep() && !s.isBench() })
	var ticks int
	var epochTicks []float64
	for _, s := range spans {
		if s.Name == "demand.Tick" {
			ticks++
			if s.Epoch {
				epochTicks = append(epochTicks, s.dur()*1e3)
			}
		}
	}
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	self, rootSelf := selfTimes(spans)
	m := map[string]float64{
		"net.new_s":                   secs(named("net.New")),
		"topo.gen_s":                  secs(layer("topo")),
		"routing.gen_s":               routingS,
		"routing.paths":               float64(paths),
		"routing.alloc_mb":            mb(routingAlloc),
		"controller.deploy_topo_s":    secs(named("controller.DeployTopo")),
		"controller.deploy_routing_s": deployRouting,
		"controller.table_entries":    float64(c.TableEntries),
		"controller.us_per_entry":     ratio(deployRouting*1e6, float64(c.TableEntries)),
		"demand.tick_s":               tickS,
		"demand.ticks":                float64(ticks),
		"demand.epochs":               float64(c.Epochs),
		"demand.reconfigs":            float64(c.Reconfigs),
		"demand.epoch_tick_ms_p50":    median(epochTicks),
		"sim.loop_s":                  loopS,
		"sim.events":                  float64(c.Events),
		"sim.events_per_pkt":          ratio(float64(c.Events), float64(c.Pool.Gets)),
		"sim.ns_per_event":            ratio(loopS*1e9, float64(c.Events)),
		"sim.max_wheel_events":        float64(c.MaxWheel),
		"sim.overflow_pushes":         float64(c.OverflowPush),
		"switchsim.rx_pkts":           float64(c.Switch.RxPkts),
		"switchsim.delivered":         float64(c.Switch.Delivered),
		"switchsim.drops_wrap":        float64(c.Switch.DropsWrap),
		"switchsim.drops_noroute":     float64(c.Switch.DropsNoRoute),
		"switchsim.slice_misses":      float64(c.Switch.SliceMisses),
		"switchsim.fallbacks":         float64(c.Switch.Fallbacks),
		"fabric.optical_forwarded":    float64(c.OpticalFwd),
		"fabric.drops_reconfig":       float64(c.DropsReconfig),
		"fabric.drops_nocircuit":      float64(c.DropsNoCirc),
		"net.drop_frac":               ratio(float64(c.drops()), float64(c.HostTx)),
		"core.pool_gets":              float64(c.Pool.Gets),
		"core.pool_high_water":        float64(c.Pool.HighWater),
		"transport.retransmissions":   float64(c.Retransmits),
		"traffic.flows_started":       float64(c.FlowsStarted),
		"traffic.flows_done":          float64(c.FlowsDone),
		"traffic.setup_s":             self["traffic"],
		"go.setup_alloc_mb":           mb(setupAlloc),
		"go.run_alloc_mb":             mb(runAlloc),
		"go.gc_cycles":                float64(gc[0].Value.Uint64()),
		"go.gc_cpu_frac":              ms.GCCPUFraction,
		"bench.self_s":                rootSelf,
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
