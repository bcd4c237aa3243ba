// Command perfbench is the repository benchmark. It runs one workload
// (see workload.go) again and again for a fixed host-time budget, one
// run at a time, each in a fresh child process so peak RSS and GC state
// belong to that run alone. It checks every run's output, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of the traced
// build (-trace 1); the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload rotor16-rpc --seed 7 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer shares.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workerEnv marks a child process that runs one workload run.
const workerEnv = "PERFBENCH_WORKER"

// hardStop keeps a whole invocation under the 180 s a run may take.
const hardStop = 170 * time.Second

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the simulator sees (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"wall_s", "s"}, {"pkts_per_s", "1/s"},
	{"peak_rss_mb", "MB"}, {"fct_p50_us", "us"}, {"fct_p99_us", "us"},
	{"flow_completion_frac", "ratio"}, {"delivered_frac", "ratio"},
}

// perLayer are the metrics of the traced run (-trace 1).
var perLayer = []metricDef{
	{"net.new_s", "s"}, {"topo.gen_s", "s"},
	{"routing.gen_s", "s"}, {"routing.paths", "count"}, {"routing.alloc_mb", "MB"},
	{"controller.deploy_topo_s", "s"}, {"controller.deploy_routing_s", "s"},
	{"controller.table_entries", "count"}, {"controller.us_per_entry", "us/entry"},
	{"demand.tick_s", "s"}, {"demand.ticks", "count"}, {"demand.epochs", "count"},
	{"demand.reconfigs", "count"}, {"demand.epoch_tick_ms_p50", "ms"},
	{"sim.loop_s", "s"}, {"sim.events", "count"}, {"sim.events_per_pkt", "events/pkt"},
	{"sim.ns_per_event", "ns/event"}, {"sim.max_wheel_events", "count"}, {"sim.overflow_pushes", "count"},
	{"switchsim.rx_pkts", "count"}, {"switchsim.delivered", "count"}, {"switchsim.drops_wrap", "count"},
	{"switchsim.drops_noroute", "count"}, {"switchsim.slice_misses", "count"}, {"switchsim.fallbacks", "count"},
	{"fabric.optical_forwarded", "count"}, {"fabric.drops_reconfig", "count"}, {"fabric.drops_nocircuit", "count"},
	{"net.drop_frac", "ratio"},
	{"core.pool_gets", "count"}, {"core.pool_high_water", "count"},
	{"transport.retransmissions", "count"},
	{"traffic.flows_started", "count"}, {"traffic.flows_done", "count"}, {"traffic.setup_s", "s"},
	{"go.setup_alloc_mb", "MB"}, {"go.run_alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_cpu_frac", "ratio"},
	{"bench.self_s", "s"}, {"trace.overhead_s", "s"}, {"trace.overhead_frac", "ratio"},
}

func main() {
	if os.Getenv(workerEnv) == "1" {
		if err := workerMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

type options struct {
	workload workload
	seed     uint64
	budget   time.Duration
	trace    bool
	toy      bool
	spansOut string
}

// benchMain parses the benchmark's arguments, runs the workload and
// prints the report. It returns the process exit code: 0 when every run
// passed its checks, 1 when one failed, 2 on a usage error.
func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: rotor16-rpc|rotor64-compile|daware12-reprogram")
	seed := fs.Uint64("seed", 7, "input seed")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	toy := fs.Bool("toy", false, "self-test scale: tiny networks and windows")
	spansOut := fs.String("spans-out", "", "write the traced runs' spans here (default .bench_build/spans/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name, *toy)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (one of rotor16-rpc, rotor64-compile, daware12-reprogram), --seconds > 0 and --trace 0|1")
		return 2
	}
	o := options{workload: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, toy: *toy, spansOut: *spansOut}
	if o.trace && o.spansOut == "" {
		o.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
	}
	ops, failures := drive(o)
	if len(ops) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no workload run completed:", strings.Join(failures, "; "))
		return 1
	}
	ok, err := report(o, ops, failures, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// drive runs the workload until the budget is spent, one run at a time,
// each in its own child process. Untraced runs cycle through the
// workload's input seeds until every input has run once and one of them
// twice (three runs of a workload with a single input). With -trace 1
// the runs alternate untraced and traced on input 0, at least one of
// each. It returns the completed runs and a message per run that failed
// to complete.
func drive(o options) ([]*opResult, []string) {
	exe, err := os.Executable()
	if err != nil {
		return nil, []string{err.Error()}
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(hardStop))
	defer cancel()
	inputs := o.workload.inputs()
	minOps := max(3, inputs+1)
	if o.trace {
		minOps, inputs = 2, 1
	}
	var ops []*opResult
	var failures []string
	for i := 0; ; i++ {
		t := time.Now()
		res, err := spawn(ctx, exe, o, inputSeed(o.seed, i%inputs), o.trace && i%2 == 1)
		if err != nil {
			failures = append(failures, err.Error())
			break
		}
		ops = append(ops, res)
		last, elapsed := time.Since(t), time.Since(start)
		if (len(ops) >= minOps && elapsed+last > o.budget) || elapsed+last > hardStop {
			break
		}
	}
	return ops, failures
}

// spawn runs one workload run in a child process and reads its result.
func spawn(ctx context.Context, exe string, o options, seed uint64, traced bool) (*opResult, error) {
	args := []string{"-workload", o.workload.Name, "-seed", strconv.FormatUint(seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-toy=" + strconv.FormatBool(o.toy)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run %v: %w", args, err)
	}
	var res opResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("run %v: bad result: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &res, nil
}

// check lists what is wrong with one run: broken conservation laws, and
// any difference from the simulated counters of ref, the first run of the
// same input seed. Every run of one seed simulates the same thing, traced
// or not, so the compiled-table digest and every counter must match.
func check(ref, res *opResult) []string {
	bad := res.Problems
	if !reflect.DeepEqual(ref.Sim, res.Sim) {
		a, b := reflect.ValueOf(ref.Sim), reflect.ValueOf(res.Sim)
		for i := 0; i < a.NumField(); i++ {
			if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
				bad = append(bad, fmt.Sprintf("%s differs from the first run of seed %d: %v vs %v",
					a.Type().Field(i).Name, ref.Seed, a.Field(i).Interface(), b.Field(i).Interface()))
			}
		}
	}
	return bad
}

// report prints the human-readable lines and then the result JSON as the
// last line. It returns whether every run passed its checks.
func report(o options, ops []*opResult, failures []string, out io.Writer) (bool, error) {
	failed := len(failures)
	var untraced, traced, firsts []*opResult
	first := map[uint64]*opResult{}
	for i, res := range ops {
		ref := first[res.Seed]
		if ref == nil {
			ref = res
			first[res.Seed] = res
			firsts = append(firsts, res)
		}
		if bad := check(ref, res); len(bad) > 0 {
			failed++
			for _, b := range bad {
				fmt.Fprintf(out, "CHECK FAILED run %d (seed %d, traced=%v): %s\n", i, res.Seed, res.Traced, b)
			}
		}
		if res.Traced {
			traced = append(traced, res)
		} else {
			untraced = append(untraced, res)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(out, "RUN FAILED:", f)
	}
	if want := o.workload.inputs(); !o.trace && len(firsts) < want {
		fmt.Fprintf(out, "RUN FAILED: only %d of %d input seeds ran within %v\n", len(firsts), want, hardStop)
		failed++
	}
	fmt.Fprintln(out, o.workload.describe())
	fmt.Fprintf(out, "seed %d: %d runs (%d traced), %d failed\n", o.seed, len(ops), len(traced), failed)
	var c simCounts // summed over the input seeds
	var fct []float64
	for _, r := range firsts {
		s := r.Sim
		fmt.Fprintf(out, "input seed %d: compiled-table digest %s over %d entries; flows %d started, %d done; packets %d sent by hosts, %d received, %d dropped\n",
			r.Seed, s.Digest, s.TableEntries, s.FlowsStarted, s.FlowsDone, s.HostTx, s.HostRx, s.drops())
		c.FlowsStarted += s.FlowsStarted
		c.FlowsDone += s.FlowsDone
		c.HostTx += s.HostTx
		c.HostRx += s.HostRx
		fct = append(fct, r.FCTNs...)
	}
	sort.Float64s(fct)
	if !o.trace {
		fmt.Fprintf(out, "FCT sample count %d (pooled over %d input seed(s))\n", len(fct), len(firsts))
	}

	var metrics map[string]float64
	var defs []metricDef
	if o.trace {
		defs = perLayer
		metrics = layerReport(untraced, traced, out)
		if err := writeSpans(o, traced); err != nil {
			return false, err
		}
	} else {
		defs = endToEnd
		pick := func(f func(*opResult) float64) float64 {
			var v []float64
			for _, r := range untraced {
				v = append(v, f(r))
			}
			return median(v)
		}
		metrics = map[string]float64{
			"setup_s":              pick(func(r *opResult) float64 { return r.SetupS }),
			"run_s":                pick(func(r *opResult) float64 { return r.RunS }),
			"wall_s":               pick(func(r *opResult) float64 { return r.WallS }),
			"pkts_per_s":           pick(func(r *opResult) float64 { return float64(r.Sim.Pool.Gets) / r.RunS }),
			"peak_rss_mb":          pick(func(r *opResult) float64 { return r.PeakRSSMB }),
			"fct_p50_us":           percentile(fct, 50) / 1e3,
			"fct_p99_us":           percentile(fct, 99) / 1e3,
			"flow_completion_frac": ratio(float64(c.FlowsDone), float64(c.FlowsStarted)),
			"delivered_frac":       ratio(float64(c.HostRx), float64(c.HostTx)),
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: len(ops) + len(failures), Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := metrics[d.Name]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
		result.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return result.Correct, nil
}

// layerReport prints each layer's self time with its share of the traced
// wall time, and the tracing overhead next to it, and returns the
// per-layer metrics: medians over the traced runs.
func layerReport(untraced, traced []*opResult, out io.Writer) map[string]float64 {
	metrics := map[string]float64{}
	for _, d := range perLayer {
		var v []float64
		for _, r := range traced {
			v = append(v, r.Layer[d.Name])
		}
		metrics[d.Name] = median(v)
	}
	wall := func(rs []*opResult) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, r.WallS)
		}
		return median(v)
	}
	tw, uw := wall(traced), wall(untraced)
	metrics["trace.overhead_s"] = tw - uw
	metrics["trace.overhead_frac"] = ratio(tw-uw, uw)

	self := map[string][]float64{}
	var rootSelf []float64
	for _, r := range traced {
		layers, root := selfTimes(r.Spans)
		for l, s := range layers {
			self[l] = append(self[l], s)
		}
		rootSelf = append(rootSelf, root)
	}
	var names []string
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "layer self time, median of %d traced runs (share of traced wall %.4g s):\n", len(traced), tw)
	for _, l := range names {
		s := median(self[l])
		fmt.Fprintf(out, "  %-12s %10.4f s %6.1f%%\n", l, s, 100*ratio(s, tw))
	}
	fmt.Fprintf(out, "  %-12s %10.4f s %6.1f%%  (root span outside every child)\n", "(root)", median(rootSelf), 100*ratio(median(rootSelf), tw))
	fmt.Fprintf(out, "tracing overhead: traced wall %.4f s - untraced wall %.4f s = %+.4f s (%+.1f%%), %d untraced runs\n",
		tw, uw, tw-uw, 100*ratio(tw-uw, uw), len(untraced))
	return metrics
}

// writeSpans writes the traced runs' spans, kept in memory until now.
func writeSpans(o options, traced []*opResult) error {
	runs := make([][]span, len(traced))
	for i, r := range traced {
		runs[i] = r.Spans
	}
	b, err := json.MarshalIndent(map[string]any{"workload": o.workload.Name, "seed": o.seed, "runs": runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.spansOut), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.spansOut, b, 0o644)
}

// percentile is the nearest-rank p-th percentile of sorted values, as
// stats.Sample computes it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(rank, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
