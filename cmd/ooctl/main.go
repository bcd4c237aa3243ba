// Command ooctl is the offline compiler front end: it generates a topology
// with one of the Table 1 algorithms, runs a routing scheme over it, and
// prints what the optical controller would deploy — the OCS program and
// the per-node time-flow tables — without running any traffic. It is the
// quickest way to inspect what a script of Fig. 5 actually installs.
//
// It also fronts the live observability plane: `ooctl watch <addr>` polls
// a running oosim/oobench -http server's /snapshot endpoint and renders a
// live per-switch occupancy and drop table (watch.go) — and the offline
// trace analytics: `ooctl trace <summary|flows|hops|drops|export>` reads
// the JSONL written by oosim -trace-out and reports where packet time
// went, with a Perfetto-compatible export (trace.go).
//
// It also fronts cross-run differential analytics: `ooctl compare` loads
// two runs' artifacts (sweep summaries, ledgers, or oobench -json reports),
// aligns scenarios by provenance config digest, and tests every shared
// metric for statistically significant change; `ooctl regress` is the CI
// entry point, exiting 3 when a candidate regresses against a committed
// baseline (compare.go).
//
// It also fronts the engine observatory: `ooctl engine
// <chains|pressure|shards>` reads the report written by `oosim -engine-out`
// and renders the event-causality ledger with its merge analysis, the
// scheduler-pressure counters, or the sharding-feasibility matrix
// (engine.go).
//
// It also fronts the determinism auditor: `ooctl diverge` compares two
// digest journals written by `oosim -digest-out`, finds the first
// mismatched hash window, and — when the journals carry replay specs —
// re-runs that window with per-event capture to name the exact first
// divergent event, exiting 3 on divergence (diverge.go).
//
// Usage:
//
//	ooctl -n 8 -uplink 2 -topo roundrobin -routing vlb -lookup hop
//	ooctl -n 8 -topo mesh -routing ecmp -dump-tables
//	ooctl watch localhost:8080
//	ooctl watch -once localhost:8080
//	ooctl trace summary run.trace.jsonl
//	ooctl trace export -o run.perfetto.json run.trace.jsonl
//	ooctl compare before/summary.json after/summary.json
//	ooctl regress -baseline testdata/baselines/regress_base.summary.json run/summary.json
//	ooctl engine chains run.engine.json
//	ooctl engine shards run.engine.json
//	ooctl diverge a.digest.jsonl b.digest.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"openoptics/internal/controller"
	"openoptics/internal/core"
	"openoptics/internal/provenance"
	"openoptics/internal/routing"
	"openoptics/internal/topo"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(runWatch(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], false))
	}
	if len(os.Args) > 1 && os.Args[1] == "regress" {
		os.Exit(runRegress(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "engine" {
		os.Exit(runEngine(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "diverge" {
		os.Exit(runDiverge(os.Args[2:]))
	}
	if len(os.Args) > 1 && (os.Args[1] == "-version" || os.Args[1] == "--version" || os.Args[1] == "version") {
		fmt.Println(provenance.VersionString("ooctl"))
		os.Exit(0)
	}
	n := flag.Int("n", 8, "endpoint-node count")
	uplink := flag.Int("uplink", 1, "optical uplinks per node")
	topoName := flag.String("topo", "roundrobin", "topology: roundrobin|roundrobin2d|mesh")
	routingName := flag.String("routing", "vlb", "routing: direct|ecmp|wcmp|ksp|vlb|opera|ucmp|hoho")
	lookup := flag.String("lookup", "hop", "LOOKUP option: hop|source")
	multipath := flag.String("multipath", "packet", "MULTIPATH option: none|packet|flow")
	sliceUs := flag.Int("slice-us", 100, "slice duration in µs")
	maxHop := flag.Int("max-hop", 2, "max circuit traversals per path")
	dumpTables := flag.Bool("dump-tables", false, "print every time-flow table entry")
	dumpOCS := flag.Bool("dump-ocs", false, "print the compiled OCS program")
	flag.Parse()

	circuits, numSlices, err := buildTopo(*topoName, *n, *uplink)
	check(err)
	sched := &core.Schedule{
		NumSlices:     numSlices,
		SliceDuration: time.Duration(*sliceUs) * time.Microsecond,
		Guard:         200 * time.Nanosecond,
		Circuits:      circuits,
	}
	check(sched.Validate())
	fmt.Printf("topology %s: %d circuits over %d slices (cycle %v)\n",
		*topoName, len(circuits), numSlices, sched.CycleDuration())

	prog, err := controller.CompileTopo(sched, controller.OCSStructure{
		Count: 1, PortsPerOCS: *n * *uplink, UplinksPerNode: *uplink,
	})
	check(err)
	fmt.Printf("OCS program: %d connections on %d device(s)\n",
		len(prog.Connections), prog.Structure.Count)
	if *dumpOCS {
		for _, cn := range prog.Connections {
			fmt.Printf("  ocs%d ts=%2d  %3d <-> %3d\n", cn.OCS, cn.Slice, cn.InPort, cn.OutPort)
		}
	}

	ix := core.NewConnIndex(sched)
	paths, err := buildRouting(*routingName, ix, routing.Options{MaxHop: *maxHop})
	check(err)
	fmt.Printf("routing %s: %d paths\n", *routingName, len(paths))

	cr, err := controller.CompileRouting(ix, paths, controller.CompileOptions{
		Lookup:    parseLookup(*lookup),
		Multipath: parseMultipath(*multipath),
	})
	check(err)
	fmt.Printf("compiled: %d time-flow entries across %d nodes\n", cr.Entries, len(cr.Tables))
	for node := core.NodeID(0); int(node) < *n; node++ {
		tab := cr.Tables[node]
		if tab == nil {
			continue
		}
		fmt.Printf("  N%-3d %4d entries\n", node, tab.Len())
		if *dumpTables {
			for _, e := range tab.Entries() {
				fmt.Printf("       %s\n", entryString(e))
			}
		}
	}
}

func buildTopo(name string, n, uplink int) ([]core.Circuit, int, error) {
	switch name {
	case "roundrobin":
		return topo.RoundRobin(n, uplink)
	case "roundrobin2d":
		return topo.RoundRobinDim(n, 2, uplink)
	case "mesh":
		c, err := topo.UniformMesh(n, uplink)
		return c, 1, err
	}
	return nil, 0, fmt.Errorf("unknown topology %q", name)
}

func buildRouting(name string, ix *core.ConnIndex, opt routing.Options) ([]core.Path, error) {
	switch name {
	case "direct":
		return routing.Direct(ix, opt), nil
	case "ecmp":
		return routing.ECMP(ix, opt), nil
	case "wcmp":
		return routing.WCMP(ix, opt), nil
	case "ksp":
		return routing.KSP(ix, 4, opt), nil
	case "vlb":
		return routing.VLB(ix, opt), nil
	case "opera":
		return routing.Opera(ix, opt), nil
	case "ucmp":
		return routing.UCMP(ix, opt), nil
	case "hoho":
		return routing.HOHO(ix, opt), nil
	}
	return nil, fmt.Errorf("unknown routing %q", name)
}

func parseLookup(s string) core.LookupMode {
	if s == "source" {
		return core.LookupSource
	}
	return core.LookupHop
}

func parseMultipath(s string) core.MultipathMode {
	switch s {
	case "packet":
		return core.MultipathPacket
	case "flow":
		return core.MultipathFlow
	}
	return core.MultipathNone
}

func entryString(e *core.Entry) string {
	m := e.Match
	arr, src, dst := "*", "*", "*"
	if !m.ArrSlice.IsWildcard() {
		arr = fmt.Sprintf("%d", m.ArrSlice)
	}
	if m.Src != core.NoNode {
		src = fmt.Sprintf("N%d", m.Src)
	}
	if m.Dst != core.NoNode {
		dst = fmt.Sprintf("N%d", m.Dst)
	}
	s := fmt.Sprintf("prio=%d arr=%s src=%s dst=%s ->", e.Priority, arr, src, dst)
	for _, a := range e.Actions {
		dep := "*"
		if !a.DepSlice.IsWildcard() {
			dep = fmt.Sprintf("%d", a.DepSlice)
		}
		s += fmt.Sprintf(" (p%d,ts=%s,w=%g", a.Egress, dep, a.Weight)
		if len(a.SourceRoute) > 0 {
			s += fmt.Sprintf(",sr=%d hops", len(a.SourceRoute))
		}
		s += ")"
	}
	if len(e.Actions) > 1 {
		s += fmt.Sprintf(" [%s]", e.Mode)
	}
	return s
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooctl:", err)
		os.Exit(1)
	}
}
