package runner

import (
	"errors"
	"fmt"
	"io"
	"time"

	"openoptics"
	"openoptics/internal/arch"
	"openoptics/internal/provenance"
	"openoptics/internal/routing"
	"openoptics/internal/sim"
	"openoptics/internal/stats"
	"openoptics/internal/telemetry"
	"openoptics/internal/traffic"
)

// Scenario is one fully-instantiated point of the sweep grid: everything a
// job needs to build its network, drive its workload, and measure.
type Scenario struct {
	ID      string  `json:"id"`
	Arch    string  `json:"arch"`
	Routing string  `json:"routing,omitempty"`
	Nodes   int     `json:"nodes"`
	Trace   string  `json:"trace"`
	Load    float64 `json:"load"`
	// Rep is the replication index; it feeds the seed fork label, so
	// replications of the same scenario are decorrelated.
	Rep int `json:"rep"`
	// Seed is the derived per-job seed (sweep seed forked by job ID).
	Seed uint64 `json:"seed"`

	DurationMs      int     `json:"duration_ms"`
	SliceDurationNs int64   `json:"slice_duration_ns,omitempty"`
	Uplink          int     `json:"uplink,omitempty"`
	MaxHop          int     `json:"max_hop,omitempty"`
	Profile         string  `json:"profile"`
	TraceSample     float64 `json:"trace_sample,omitempty"`
	EventDigest     bool    `json:"event_digest,omitempty"`

	// Demand-aware control-plane point (daware architecture only).
	Policy            string `json:"policy,omitempty"`
	Predictor         string `json:"predictor,omitempty"`
	CollectIntervalUs int64  `json:"collect_interval_us,omitempty"`
	ReconfigPeriodUs  int64  `json:"reconfig_period_us,omitempty"`
	ReconfigDrainUs   int64  `json:"reconfig_drain_us,omitempty"`

	// Workload shaping (all architectures).
	HotFrac        float64 `json:"hot_frac,omitempty"`
	HotPairs       int     `json:"hot_pairs,omitempty"`
	LoadShape      string  `json:"load_shape,omitempty"`
	ShapePeriodMs  int     `json:"shape_period_ms,omitempty"`
	ShapeAmplitude float64 `json:"shape_amplitude,omitempty"`
}

// ConfigDigest is the canonical-JSON SHA-256 of the scenario with its
// replication axis stripped (ID, Rep, Seed zeroed): the identity of the
// grid point itself. Replications of one scenario share a digest, and two
// sweeps' scenarios align for comparison exactly when digests match.
func (sc Scenario) ConfigDigest() string {
	sc.ID, sc.Rep, sc.Seed = "", 0, 0
	return provenance.MustDigest(sc)
}

// id renders the canonical job ID. It is the scenario's identity: ledger
// checkpointing, seed derivation, and aggregate ordering all key on it.
func (sc Scenario) id() string {
	name := sc.Arch
	if sc.Routing != "" {
		name += "-" + sc.Routing
	}
	if sc.Arch == "daware" {
		// The control-plane point is part of the daware job identity; the
		// extended segments keep every other architecture's IDs unchanged.
		name += "-" + sc.Policy + "-" + sc.Predictor
		return fmt.Sprintf("%s/n%d/%s/l%.2f/ci%d/rp%d/r%d",
			name, sc.Nodes, sc.Trace, sc.Load, sc.CollectIntervalUs, sc.ReconfigPeriodUs, sc.Rep)
	}
	return fmt.Sprintf("%s/n%d/%s/l%.2f/r%d", name, sc.Nodes, sc.Trace, sc.Load, sc.Rep)
}

// jobSeed forks the sweep seed by the job ID (FNV-1a hashed), giving every
// job an independent deterministic stream — the same derivation regardless
// of worker count, completion order, or which subset of the grid runs.
func jobSeed(sweepSeed uint64, jobID string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= fnvPrime
	}
	return sim.NewRand(sweepSeed).Fork(h).Uint64()
}

// Job is one unit of sweep work.
type Job struct {
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	Scenario
}

// Result is the deterministic measurement a job produces. Every field is a
// pure function of the scenario (virtual-time simulation under a fixed
// seed), so two runs of the same job — on any worker, in any order — yield
// identical Results. Wall-clock quantities live on the ledger Record, not
// here.
type Result struct {
	// FlowsStarted counts workload arrivals over the measured window.
	FlowsStarted uint64 `json:"flows_started"`
	// Events is the engine's executed-event count (a determinism witness:
	// it diverges on any behavioral difference).
	Events uint64 `json:"events"`

	// FCT statistics in ns (fct profile; zero otherwise).
	FCTCount  int     `json:"fct_count"`
	FCTMeanNs float64 `json:"fct_mean_ns"`
	FCTP50Ns  float64 `json:"fct_p50_ns"`
	FCTP95Ns  float64 `json:"fct_p95_ns"`
	FCTP99Ns  float64 `json:"fct_p99_ns"`
	FCTMaxNs  float64 `json:"fct_max_ns"`

	// Buffer statistics of the observed (first) switch, Table-3 style.
	BufP999Bytes float64 `json:"buf_p999_bytes"`
	BufMaxBytes  float64 `json:"buf_max_bytes"`
	// Parked is the packet count offloaded to hosts across the network.
	Parked uint64 `json:"parked"`

	// Per-component latency attribution (PR 5 decomposition) summed over
	// sampled delivered packets; present when the spec sets trace_sample.
	TraceDelivered      uint64 `json:"trace_delivered,omitempty"`
	CompSliceWaitNs     int64  `json:"comp_slice_wait_ns,omitempty"`
	CompQueueingNs      int64  `json:"comp_queueing_ns,omitempty"`
	CompSerializationNs int64  `json:"comp_serialization_ns,omitempty"`
	CompPropagationNs   int64  `json:"comp_propagation_ns,omitempty"`

	// Demand-aware control-plane measurement (daware architecture only).
	Reconfigs     uint64 `json:"reconfigs,omitempty"`
	ReconfigDrops uint64 `json:"reconfig_drops,omitempty"`
	DemandEpochs  uint64 `json:"demand_epochs,omitempty"`
	// PredErrRatio is the predictor's cumulative L1 error over actual
	// bytes; Coverage the last epoch's matching-weight coverage.
	PredErrRatio float64 `json:"pred_err_ratio,omitempty"`
	Coverage     float64 `json:"coverage,omitempty"`

	// Determinism-auditor measurement, present when the spec sets
	// event_digest: the final digest chain over the job's whole dispatch
	// stream, the state-checkpoint count, and invariant violations.
	EventDigest         string `json:"event_digest,omitempty"`
	Checkpoints         int    `json:"checkpoints,omitempty"`
	InvariantViolations uint64 `json:"invariant_violations,omitempty"`

	// Warnings are the architecture's configuration warnings after the
	// run (arch.Instance.Warnings), e.g. a calendar too shallow for its
	// routes.
	Warnings []string `json:"warnings,omitempty"`
}

// ErrTimeout marks a job attempt that exceeded its wall-clock budget. It
// is permanent: the pool does not retry it (the same simulation would
// exceed the same budget again).
var ErrTimeout = errors.New("runner: job wall-clock timeout exceeded")

// RunOpts tunes one job execution.
type RunOpts struct {
	// Timeout bounds the attempt's wall-clock time (<= 0: none).
	Timeout time.Duration
	// Metrics, when non-nil, receives the job network's telemetry
	// registry (PR 1) as JSON after the run.
	Metrics io.Writer
	// Manifest, when non-nil, is stamped into the job's metrics export
	// (the sweep-wide provenance manifest).
	Manifest any
}

// Run executes the scenario to completion (or timeout) and measures it.
func (sc Scenario) Run(opt RunOpts) (*Result, error) {
	in, err := sc.build()
	if err != nil {
		return nil, fmt.Errorf("runner: build %s: %w", sc.ID, err)
	}
	var reg *telemetry.Registry
	if opt.Metrics != nil {
		reg = in.Net.Metrics() // build before traffic so per-slice counters record
		if opt.Manifest != nil {
			reg.SetManifest(opt.Manifest)
		}
	}
	var aud *openoptics.Auditor
	if sc.EventDigest {
		aud = in.Net.AttachDigest(openoptics.DigestOptions{})
	}
	var tracer *telemetry.Tracer
	if sc.TraceSample > 0 {
		// Sink-less: the tracer only aggregates the per-component latency
		// attribution the Result reports.
		tracer = in.Net.Tracer(sc.TraceSample)
	}
	eng := in.Net.Engine()
	eps := in.Net.Endpoints()
	sink := traffic.NewSink(eps)
	cdf, err := traffic.ByName(sc.Trace)
	if err != nil {
		return nil, fmt.Errorf("runner: %s: %w", sc.ID, err)
	}
	dur := time.Duration(sc.DurationMs) * time.Millisecond
	rp, err := traffic.NewReplay(eng, eps, cdf, sc.Load,
		int64(in.Net.Cfg.LineRateGbps*1e9), sc.Seed^0x7ab1e3)
	if err != nil {
		return nil, fmt.Errorf("runner: %s: %w", sc.ID, err)
	}
	rp.OpenLoop = sc.Profile == ProfileBuffer
	rp.HotFrac = sc.HotFrac
	rp.HotPairs = sc.HotPairs
	if sc.LoadShape != "" && sc.LoadShape != "flat" {
		rp.Shape = &traffic.LoadShape{
			Kind:      sc.LoadShape,
			PeriodNs:  int64(sc.ShapePeriodMs) * 1e6,
			Amplitude: sc.ShapeAmplitude,
		}
	}
	rp.Start(int64(dur))

	var deadline time.Time
	if opt.Timeout > 0 {
		deadline = time.Now().Add(opt.Timeout)
	}
	// Drain window after the measured arrivals, as the paper drivers use.
	if err := driveInstance(in, dur+10*time.Millisecond, deadline); err != nil {
		return nil, fmt.Errorf("runner: %s: %w", sc.ID, err)
	}

	res := &Result{FlowsStarted: rp.Started, Events: eng.Processed, Warnings: in.Warnings()}
	if sc.Profile == ProfileFCT {
		s := sink.FCTSample(traffic.PortReplay)
		res.FCTCount = s.N()
		res.FCTMeanNs = s.Mean()
		res.FCTP50Ns = s.Percentile(50)
		res.FCTP95Ns = s.Percentile(95)
		res.FCTP99Ns = s.Percentile(99)
		res.FCTMaxNs = s.Max()
	}
	if sws := in.Net.Switches(); len(sws) > 0 {
		res.BufP999Bytes = sws[0].BufferPercentile(0.999)
		res.BufMaxBytes = float64(sws[0].MaxBufferUsage())
	}
	for _, h := range in.Net.Hosts() {
		res.Parked += h.Counters.Parked
	}
	res.Reconfigs = in.Net.Reconfigs()
	res.ReconfigDrops = in.Net.OpticalFabric().DropsReconfig
	if in.Demand != nil {
		st := in.Demand.Stats()
		res.DemandEpochs = st.Epochs
		res.PredErrRatio = st.PredErrRatio
		res.Coverage = st.Coverage
	}
	if aud != nil {
		res.EventDigest = aud.ChainHex()
		res.Checkpoints = len(aud.Checkpoints())
		res.InvariantViolations = aud.ViolationCount()
	}
	if tracer != nil {
		ts := tracer.Stats()
		res.TraceDelivered = ts.Delivered
		res.CompSliceWaitNs = ts.Comp.SliceWaitNs
		res.CompQueueingNs = ts.Comp.QueueingNs
		res.CompSerializationNs = ts.Comp.SerializationNs
		res.CompPropagationNs = ts.Comp.PropagationNs
	}
	if reg != nil {
		if err := reg.WriteJSON(opt.Metrics); err != nil {
			return nil, fmt.Errorf("runner: %s: metrics: %w", sc.ID, err)
		}
	}
	return res, nil
}

// build instantiates the scenario's architecture via internal/arch, with
// the routing-specific Config tuning the paper drivers apply.
func (sc Scenario) build() (*arch.Instance, error) {
	o := arch.Options{
		Nodes:           sc.Nodes,
		Uplink:          sc.Uplink,
		HostsPerNode:    1,
		SliceDurationNs: sc.SliceDurationNs,
		Seed:            sc.Seed,
		Routing:         routing.Options{MaxHop: sc.MaxHop},
		Tune: func(c *openoptics.Config) {
			if sc.Routing == "vlb+offload" {
				c.OffloadRank = 2 // keep two slices of calendars on-switch
			}
			if sc.Profile == ProfileBuffer && (sc.Routing == "hoho" || sc.Routing == "ucmp") {
				// The §7 buffer-study tuning: latency-seeking schemes run
				// with congestion detection deferring instead of dropping.
				c.CongestionDetection = true
				c.Response = "defer"
			}
		},
	}
	switch sc.Arch {
	case "clos":
		return arch.Clos(o)
	case "cthrough":
		return arch.CThrough(o)
	case "jupiter":
		return arch.Jupiter(o)
	case "mordia":
		return arch.Mordia(o)
	case "opera":
		return arch.Opera(o)
	case "semioblivious":
		return arch.SemiOblivious(o)
	case "daware":
		return arch.DemandAware(o, arch.DemandConfig{
			Policy:         sc.Policy,
			Predictor:      sc.Predictor,
			CollectEvery:   time.Duration(sc.CollectIntervalUs) * time.Microsecond,
			ReprogramEvery: time.Duration(sc.ReconfigPeriodUs) * time.Microsecond,
			DrainNs:        sc.ReconfigDrainUs * 1000,
		})
	case "rotornet":
		scheme := arch.SchemeVLB
		switch sc.Routing {
		case "", "vlb", "vlb+offload":
		case "direct":
			scheme = arch.SchemeDirect
		case "ucmp":
			scheme = arch.SchemeUCMP
		case "hoho":
			scheme = arch.SchemeHOHO
		default:
			return nil, fmt.Errorf("runner: rotornet does not support routing %q", sc.Routing)
		}
		return arch.RotorNet(o, scheme)
	}
	return nil, fmt.Errorf("runner: unknown architecture %q", sc.Arch)
}

// driveInstance advances the instance by d, preserving arch.Instance.Run's
// reconfiguration semantics exactly (TA control loops fire on their period)
// while checking the wall-clock deadline between simulation chunks. Virtual
// event order is unaffected by chunking, so results match an unchunked run.
func driveInstance(in *arch.Instance, d time.Duration, deadline time.Time) error {
	expired := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	if in.Reconfigure == nil || in.ReconfigureEvery <= 0 {
		const chunk = 2 * time.Millisecond // timeout-check granularity (virtual)
		for left := d; left > 0; {
			if expired() {
				return ErrTimeout
			}
			step := chunk
			if step > left {
				step = left
			}
			in.Net.Run(step)
			left -= step
		}
		return nil
	}
	for left := d; left > 0; {
		if expired() {
			return ErrTimeout
		}
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

// crossRep summarizes one metric across a scenario's replications.
type crossRep struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func summarize(vals []float64) crossRep {
	s := stats.NewSample()
	for _, v := range vals {
		s.Add(v)
	}
	return crossRep{Mean: s.Mean(), Min: s.Min(), Max: s.Max()}
}
