package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"openoptics/internal/provenance"
)

// Aggregate is the deterministic view of a sweep ledger: records deduped
// by job ID (latest wins, so resumed re-runs supersede), sorted by ID, and
// grouped per scenario with cross-replication statistics. Only
// deterministic fields enter the exports — wall-clock times and attempt
// counts stay in the raw ledger — so CSV/JSON bytes are identical for any
// worker count or completion order.
type Aggregate struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name,omitempty"`
	// ConfigDigest and Manifest carry the sweep's provenance (from the
	// ledger header); Stamp fills them. Aggregates built from pre-header
	// ledgers leave both empty.
	ConfigDigest string               `json:"config_digest,omitempty"`
	Manifest     *provenance.Manifest `json:"manifest,omitempty"`

	Jobs      []Record        `json:"-"`
	Scenarios []ScenarioStats `json:"scenarios"`
}

// Stamp copies the sweep's provenance from the ledger header into the
// aggregate (nil header is a no-op, keeping pre-header ledgers loadable).
func (a *Aggregate) Stamp(h *LedgerHeader) {
	if h == nil {
		return
	}
	a.Manifest = h.Manifest
	if h.Manifest != nil {
		a.ConfigDigest = h.Manifest.ConfigDigest
	}
}

// ScenarioStats summarizes one scenario across its replications.
type ScenarioStats struct {
	Scenario string `json:"scenario"`
	// ConfigDigest identifies the grid point (replication axis stripped);
	// cross-run comparison aligns scenarios on it.
	ConfigDigest string `json:"config_digest,omitempty"`
	Jobs         int    `json:"jobs"`
	OK           int    `json:"ok"`
	Failed       int    `json:"failed"`

	// Cross-replication stats over successful jobs (fct profile fields
	// zero under the buffer profile and vice versa where not measured).
	FCTP50Ns     crossRep `json:"fct_p50_ns"`
	FCTP99Ns     crossRep `json:"fct_p99_ns"`
	FCTMaxNs     crossRep `json:"fct_max_ns"`
	BufP999Bytes crossRep `json:"buf_p999_bytes"`
	Flows        crossRep `json:"flows"`

	// Reps lists every successful replication's deterministic metrics in
	// job-ID order — the raw samples cross-run significance tests need.
	Reps []RepMetrics `json:"reps"`

	// Warnings lists the distinct configuration warnings of the
	// scenario's jobs, sorted.
	Warnings []string `json:"warnings,omitempty"`
}

// RepMetrics is one replication's deterministic measurement, lifted from
// the ledger into the aggregate so summary.json is self-contained for
// statistical comparison.
type RepMetrics struct {
	JobID string `json:"job_id"`
	Rep   int    `json:"rep"`
	Seed  uint64 `json:"seed"`

	Flows  uint64 `json:"flows"`
	Events uint64 `json:"events"`

	FCTMeanNs float64 `json:"fct_mean_ns"`
	FCTP50Ns  float64 `json:"fct_p50_ns"`
	FCTP95Ns  float64 `json:"fct_p95_ns"`
	FCTP99Ns  float64 `json:"fct_p99_ns"`
	FCTMaxNs  float64 `json:"fct_max_ns"`

	BufP999Bytes float64 `json:"buf_p999_bytes"`
	BufMaxBytes  float64 `json:"buf_max_bytes"`

	// Per-component latency attribution totals (ns), present when the
	// sweep ran with trace_sample > 0.
	TraceDelivered      uint64 `json:"trace_delivered,omitempty"`
	CompSliceWaitNs     int64  `json:"comp_slice_wait_ns,omitempty"`
	CompQueueingNs      int64  `json:"comp_queueing_ns,omitempty"`
	CompSerializationNs int64  `json:"comp_serialization_ns,omitempty"`
	CompPropagationNs   int64  `json:"comp_propagation_ns,omitempty"`

	// Demand-aware control-plane metrics, present for daware jobs.
	Reconfigs     uint64  `json:"reconfigs,omitempty"`
	ReconfigDrops uint64  `json:"reconfig_drops,omitempty"`
	DemandEpochs  uint64  `json:"demand_epochs,omitempty"`
	PredErrRatio  float64 `json:"pred_err_ratio,omitempty"`
	Coverage      float64 `json:"coverage,omitempty"`

	// Determinism-auditor metrics, present when the sweep set event_digest.
	EventDigest         string `json:"event_digest,omitempty"`
	Checkpoints         int    `json:"checkpoints,omitempty"`
	InvariantViolations uint64 `json:"invariant_violations,omitempty"`
}

// NewAggregate builds the deterministic aggregate from raw ledger records.
func NewAggregate(name string, recs []Record) *Aggregate {
	a := &Aggregate{SchemaVersion: provenance.SchemaVersion, Name: name, Jobs: SortRecords(recs)}
	type bucket struct {
		key                           string
		digest                        string
		jobs, ok, failed              int
		p50, p99, max, bufP999, flows []float64
		reps                          []RepMetrics
		warnings                      []string
	}
	var order []string
	buckets := make(map[string]*bucket)
	for _, r := range a.Jobs {
		key := ScenarioKey(r.JobID)
		b := buckets[key]
		if b == nil {
			b = &bucket{key: key}
			buckets[key] = b
			order = append(order, key)
		}
		if b.digest == "" && r.Scenario != nil {
			b.digest = r.Scenario.ConfigDigest()
		}
		b.jobs++
		if r.Status != StatusOK || r.Result == nil {
			b.failed++
			continue
		}
		b.ok++
		res := r.Result
		b.p50 = append(b.p50, res.FCTP50Ns)
		b.p99 = append(b.p99, res.FCTP99Ns)
		b.max = append(b.max, res.FCTMaxNs)
		b.bufP999 = append(b.bufP999, res.BufP999Bytes)
		b.flows = append(b.flows, float64(res.FlowsStarted))
		rep := RepMetrics{
			JobID:  r.JobID,
			Flows:  res.FlowsStarted,
			Events: res.Events,

			FCTMeanNs: res.FCTMeanNs,
			FCTP50Ns:  res.FCTP50Ns,
			FCTP95Ns:  res.FCTP95Ns,
			FCTP99Ns:  res.FCTP99Ns,
			FCTMaxNs:  res.FCTMaxNs,

			BufP999Bytes: res.BufP999Bytes,
			BufMaxBytes:  res.BufMaxBytes,

			TraceDelivered:      res.TraceDelivered,
			CompSliceWaitNs:     res.CompSliceWaitNs,
			CompQueueingNs:      res.CompQueueingNs,
			CompSerializationNs: res.CompSerializationNs,
			CompPropagationNs:   res.CompPropagationNs,

			Reconfigs:     res.Reconfigs,
			ReconfigDrops: res.ReconfigDrops,
			DemandEpochs:  res.DemandEpochs,
			PredErrRatio:  res.PredErrRatio,
			Coverage:      res.Coverage,

			EventDigest:         res.EventDigest,
			Checkpoints:         res.Checkpoints,
			InvariantViolations: res.InvariantViolations,
		}
		if r.Scenario != nil {
			rep.Rep = r.Scenario.Rep
			rep.Seed = r.Scenario.Seed
		}
		b.reps = append(b.reps, rep)
		b.warnings = append(b.warnings, res.Warnings...)
	}
	for _, key := range order {
		b := buckets[key]
		slices.Sort(b.warnings)
		a.Scenarios = append(a.Scenarios, ScenarioStats{
			Scenario: key, ConfigDigest: b.digest,
			Jobs: b.jobs, OK: b.ok, Failed: b.failed,
			FCTP50Ns:     summarize(b.p50),
			FCTP99Ns:     summarize(b.p99),
			FCTMaxNs:     summarize(b.max),
			BufP999Bytes: summarize(b.bufP999),
			Flows:        summarize(b.flows),
			Reps:         b.reps,
			Warnings:     slices.Compact(b.warnings),
		})
	}
	return a
}

// csvHeader is the per-job export schema, one row per job in ID order.
var csvHeader = []string{
	"job_id", "arch", "routing", "nodes", "trace", "load", "rep", "seed",
	"status", "error", "flows", "events",
	"fct_n", "fct_mean_ns", "fct_p50_ns", "fct_p95_ns", "fct_p99_ns", "fct_max_ns",
	"buf_p999_bytes", "buf_max_bytes", "parked",
	"policy", "predictor", "reconfigs", "reconfig_drops", "demand_epochs",
	"pred_err_ratio", "coverage",
	"event_digest", "checkpoints", "invariant_violations",
}

// WriteCSV renders the per-job table. Floats use the shortest exact
// representation, so identical simulations yield identical bytes.
func (a *Aggregate) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(csvHeader, ","))
	b.WriteByte('\n')
	for _, r := range a.Jobs {
		sc := r.Scenario
		if sc == nil {
			sc = &Scenario{ID: r.JobID}
		}
		res := r.Result
		if res == nil {
			res = &Result{}
		}
		row := []string{
			r.JobID, sc.Arch, sc.Routing,
			strconv.Itoa(sc.Nodes), sc.Trace, g(sc.Load), strconv.Itoa(sc.Rep),
			strconv.FormatUint(sc.Seed, 10),
			r.Status, csvQuote(r.Error),
			strconv.FormatUint(res.FlowsStarted, 10),
			strconv.FormatUint(res.Events, 10),
			strconv.Itoa(res.FCTCount), g(res.FCTMeanNs), g(res.FCTP50Ns),
			g(res.FCTP95Ns), g(res.FCTP99Ns), g(res.FCTMaxNs),
			g(res.BufP999Bytes), g(res.BufMaxBytes),
			strconv.FormatUint(res.Parked, 10),
			sc.Policy, sc.Predictor,
			strconv.FormatUint(res.Reconfigs, 10),
			strconv.FormatUint(res.ReconfigDrops, 10),
			strconv.FormatUint(res.DemandEpochs, 10),
			g(res.PredErrRatio), g(res.Coverage),
			res.EventDigest,
			strconv.Itoa(res.Checkpoints),
			strconv.FormatUint(res.InvariantViolations, 10),
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the per-scenario summary.
func (a *Aggregate) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// g formats a float with the shortest representation that round-trips.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// csvQuote makes an error message CSV-safe.
func csvQuote(s string) string {
	if s == "" {
		return ""
	}
	if strings.ContainsAny(s, ",\"\n") {
		return fmt.Sprintf("%q", strings.ReplaceAll(s, "\n", " "))
	}
	return s
}
