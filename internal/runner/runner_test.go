package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySpec is the smallest real sweep that still exercises two scenarios:
// two routings on a 4-ToR RotorNet, 2 ms of virtual time each.
func tinySpec() *Spec {
	return &Spec{
		Name:          "tiny",
		Architectures: []string{"rotornet"},
		Routings:      []string{"vlb", "direct"},
		Nodes:         []int{4},
		Loads:         []float64{0.2},
		DurationMs:    2,
		Seed:          42,
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := tinySpec()
	s.Replications = 2
	a, b := s.Expand(), s.Expand()
	if len(a) != 4 {
		t.Fatalf("expanded %d jobs, want 4", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Scenario.Seed != b[i].Scenario.Seed {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].ID == a[1].ID || a[0].Scenario.Seed == a[1].Scenario.Seed {
		t.Fatalf("replications share ID or seed: %+v %+v", a[0], a[1])
	}
	// Non-rotornet architectures collapse the routing axis.
	s2 := &Spec{Architectures: []string{"clos"}, Routings: []string{"vlb", "direct"}}
	if jobs := s2.Expand(); len(jobs) != 1 || jobs[0].Scenario.Routing != "" {
		t.Fatalf("clos should collapse routings, got %+v", jobs)
	}
}

func TestPoolPanicIsolation(t *testing.T) {
	const n = 8
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Run: func(int) (any, error) {
			if i == 3 {
				panic("poisoned job")
			}
			return i, nil
		}}
	}
	results := (&Pool{Workers: 4, Backoff: time.Microsecond}).Run(tasks)
	for i, r := range results {
		if i == 3 {
			if r.Err == nil || !r.Panicked || !strings.Contains(r.Err.Error(), "poisoned job") {
				t.Fatalf("poisoned job not recorded as panicked failure: %+v", r)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy job %d failed: %v", i, r.Err)
		}
		if r.Value.(int) != i {
			t.Fatalf("job %d returned %v", i, r.Value)
		}
	}
}

func TestPoolRetryThenSucceed(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task{{ID: "flaky", Run: func(attempt int) (any, error) {
		calls.Add(1)
		if attempt < 3 {
			return nil, fmt.Errorf("transient failure on attempt %d", attempt)
		}
		return "ok", nil
	}}}
	r := (&Pool{Workers: 1, Retries: 3, Backoff: time.Microsecond}).Run(tasks)[0]
	if r.Err != nil || r.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("want success on attempt 3, got err=%v attempts=%d calls=%d", r.Err, r.Attempts, calls.Load())
	}
}

func TestPoolRetryExhausted(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task{{ID: "doomed", Run: func(int) (any, error) {
		calls.Add(1)
		return nil, errors.New("always fails")
	}}}
	r := (&Pool{Workers: 1, Retries: 2, Backoff: time.Microsecond}).Run(tasks)[0]
	if r.Err == nil || r.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("want 3 exhausted attempts, got err=%v attempts=%d calls=%d", r.Err, r.Attempts, calls.Load())
	}
}

func TestPoolTimeoutNotRetried(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task{{ID: "slow", Run: func(int) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("job: %w", ErrTimeout)
	}}}
	r := (&Pool{Workers: 1, Retries: 5, Backoff: time.Microsecond}).Run(tasks)[0]
	if !errors.Is(r.Err, ErrTimeout) || calls.Load() != 1 {
		t.Fatalf("timeout must be permanent: err=%v calls=%d", r.Err, calls.Load())
	}
}

func TestScenarioTimeout(t *testing.T) {
	jobs := (&Spec{
		Architectures: []string{"rotornet"},
		Nodes:         []int{8},
		Loads:         []float64{0.3},
		DurationMs:    500,
		Seed:          42,
	}).Expand()
	_, err := jobs[0].Scenario.Run(RunOpts{Timeout: time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestLedgerRoundTripAndTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{JobID: "a", Status: StatusOK, Result: &Result{FlowsStarted: 7}},
		{JobID: "b", Status: StatusFailed, Error: "boom"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a kill mid-write: a truncated trailing line.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"job_id":"c","sta`)
	f.Close()
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].JobID != "a" || got[1].Error != "boom" {
		t.Fatalf("round trip: %+v", got)
	}
	done := CompletedIDs(got)
	if !done["a"] || done["b"] || done["c"] {
		t.Fatalf("completed set wrong: %v", done)
	}
}

// TestSweepResume kills the sweep metaphorically by pre-seeding the ledger
// with a completed subset, then verifies the resumed sweep runs only the
// remainder and the aggregate covers everything.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	spec := tinySpec()

	// First: full run to harvest genuine records.
	if _, err := Sweep(spec, SweepOptions{Jobs: 2, LedgerPath: ledger, Retries: -1}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}

	// Fresh ledger holding only the first job: the interrupted sweep.
	part := filepath.Join(dir, "partial.jsonl")
	l, err := OpenLedger(part)
	if err != nil {
		t.Fatal(err)
	}
	var kept Record
	for _, r := range recs {
		if r.JobID == spec.Expand()[0].ID {
			kept = r
		}
	}
	if kept.JobID == "" {
		t.Fatal("first job's record missing")
	}
	if err := l.Append(kept); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Without -resume a non-empty ledger must refuse to run.
	if _, err := Sweep(spec, SweepOptions{Jobs: 2, LedgerPath: part, Retries: -1}); err == nil {
		t.Fatal("sweep over existing ledger without resume must fail")
	}

	sr, err := Sweep(spec, SweepOptions{Jobs: 2, LedgerPath: part, Resume: true, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Skipped != 1 || sr.OK != 1 || sr.Failed != 0 {
		t.Fatalf("resume: %+v (want 1 skipped, 1 ok)", sr)
	}
	all, err := ReadLedger(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("resumed ledger has %d records, want 2", len(all))
	}
	// A second resume is a no-op: everything is checkpointed.
	sr, err = Sweep(spec, SweepOptions{Jobs: 2, LedgerPath: part, Resume: true, Retries: -1})
	if err != nil || sr.Skipped != 2 || sr.OK != 0 {
		t.Fatalf("second resume should skip all: %+v err=%v", sr, err)
	}
}

// TestSweepDeterminism is the acceptance check: aggregated output must be
// byte-identical at -jobs 1 and -jobs 8 on the same spec and seed.
func TestSweepDeterminism(t *testing.T) {
	render := func(jobs int) (csv, js []byte) {
		t.Helper()
		ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
		sr, err := Sweep(tinySpec(), SweepOptions{Jobs: jobs, LedgerPath: ledger, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Failed != 0 {
			t.Fatalf("jobs=%d: %d failed", jobs, sr.Failed)
		}
		recs, err := ReadLedger(ledger)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregate("tiny", recs)
		var c, j bytes.Buffer
		if err := agg.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes()
	}
	csv1, js1 := render(1)
	csv8, js8 := render(8)
	if !bytes.Equal(csv1, csv8) {
		t.Fatalf("CSV differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", csv1, csv8)
	}
	if !bytes.Equal(js1, js8) {
		t.Fatalf("JSON summary differs between -jobs 1 and -jobs 8")
	}
	if !bytes.Contains(csv1, []byte(",ok,")) {
		t.Fatalf("CSV carries no successful rows:\n%s", csv1)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Architectures: []string{"warpdrive"}},
		{Architectures: []string{"rotornet"}, Routings: []string{"teleport"}},
		{Architectures: []string{"rotornet"}, Nodes: []int{1}},
		{Architectures: []string{"rotornet"}, Loads: []float64{1.5}},
		{Architectures: []string{"rotornet"}, Profile: "speed"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should not validate", i)
		}
	}
	if err := (&Spec{Architectures: []string{"rotornet"}}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

func TestSortRecordsDedupes(t *testing.T) {
	recs := []Record{
		{JobID: "b", Status: StatusFailed},
		{JobID: "a", Status: StatusOK},
		{JobID: "b", Status: StatusOK}, // resume re-run supersedes the failure
	}
	got := SortRecords(recs)
	if len(got) != 2 || got[0].JobID != "a" || got[1].JobID != "b" || got[1].Status != StatusOK {
		t.Fatalf("sort/dedupe wrong: %+v", got)
	}
}

func TestPoolStopDrainsInFlight(t *testing.T) {
	// Closing Stop while task "a" runs must let "a" finish normally and
	// hand back "b" and "c" undispatched (Attempts == 0) with their
	// identity intact. The stop is closed from inside "a", and "a" then
	// stays busy long enough for the feed loop to observe it — with the
	// single worker occupied, the feed's only ready select case is Stop.
	stop := make(chan struct{})
	var ran atomic.Int32
	p := &Pool{Workers: 1, Stop: stop}
	mk := func(id string) Task {
		return Task{ID: id, Run: func(int) (any, error) {
			ran.Add(1)
			if id == "a" {
				close(stop)
				time.Sleep(200 * time.Millisecond)
			}
			return id, nil
		}}
	}
	res := p.Run([]Task{mk("a"), mk("b"), mk("c")})
	if ran.Load() != 1 {
		t.Fatalf("%d tasks ran, want only the in-flight one", ran.Load())
	}
	if res[0].ID != "a" || res[0].Attempts != 1 || res[0].Err != nil {
		t.Fatalf("in-flight task result %+v, want a clean completion", res[0])
	}
	for i, id := range []string{"b", "c"} {
		r := res[i+1]
		if r.Attempts != 0 {
			t.Fatalf("task %s has Attempts=%d, want 0 (aborted marker)", id, r.Attempts)
		}
		if r.ID != id || r.Index != i+1 {
			t.Fatalf("aborted result lost identity: %+v", r)
		}
	}
}

func TestPoolNilStopRunsEverything(t *testing.T) {
	var ran atomic.Int32
	p := &Pool{Workers: 2}
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprint(i), Run: func(int) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	for _, r := range p.Run(tasks) {
		if r.Attempts != 1 {
			t.Fatalf("with nil Stop every task must run once: %+v", r)
		}
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d of 8", ran.Load())
	}
}

func TestSweepStopAbortsAndResumes(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	spec := tinySpec() // 2 jobs

	stop := make(chan struct{})
	var progs []SweepProgress
	sr, err := Sweep(spec, SweepOptions{
		Jobs: 1, LedgerPath: ledger, Retries: -1, Stop: stop,
		OnProgress: func(p SweepProgress) {
			progs = append(progs, p)
			if len(progs) == 1 {
				close(stop)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.OK != 1 || sr.Aborted != 1 || sr.Failed != 0 {
		t.Fatalf("stopped sweep: %+v, want 1 ok + 1 aborted", sr)
	}
	if len(progs) != 1 {
		t.Fatalf("OnProgress fired %d times, want once", len(progs))
	}
	p := progs[0]
	if p.Total != 2 || p.Pending != 2 || p.Done != 1 || p.OK != 1 || p.Failed != 0 {
		t.Fatalf("progress tally %+v", p)
	}
	if p.ElapsedMs <= 0 || p.EtaMs < 0 {
		t.Fatalf("progress timing %+v", p)
	}

	// The aborted job was never written to the ledger, so a resumed sweep
	// picks it up and completes the spec.
	sr2, err := Sweep(spec, SweepOptions{Jobs: 1, LedgerPath: ledger, Resume: true, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Skipped != 1 || sr2.OK != 1 || sr2.Aborted != 0 {
		t.Fatalf("resume after stop: %+v, want 1 skipped + 1 ok", sr2)
	}
	recs, err := ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("final ledger has %d records, want 2", len(recs))
	}
}

func TestSweepProgressFullRun(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	var progs []SweepProgress
	sr, err := Sweep(spec, SweepOptions{
		Jobs: 1, LedgerPath: filepath.Join(dir, "l.jsonl"), Retries: -1,
		OnProgress: func(p SweepProgress) { progs = append(progs, p) },
	})
	if err != nil || sr.OK != 2 {
		t.Fatalf("sweep: %+v err=%v", sr, err)
	}
	if len(progs) != 2 {
		t.Fatalf("OnProgress fired %d times, want 2", len(progs))
	}
	for i, p := range progs {
		if p.Done != i+1 || p.OK != i+1 {
			t.Fatalf("progress %d tally %+v", i, p)
		}
	}
	if final := progs[len(progs)-1]; final.EtaMs != 0 {
		t.Fatalf("final ETA %.1f ms, want 0", final.EtaMs)
	}
}

// TestAggregateWarnings checks that summary.json carries each scenario's
// distinct job warnings, sorted, and omits the key when there are none.
func TestAggregateWarnings(t *testing.T) {
	recs := []Record{
		{JobID: "a/n4/rpc/l0.30/r0", Status: StatusOK, Result: &Result{Warnings: []string{"w2", "w1"}}},
		{JobID: "a/n4/rpc/l0.30/r1", Status: StatusOK, Result: &Result{Warnings: []string{"w1"}}},
		{JobID: "b/n4/rpc/l0.30/r0", Status: StatusOK, Result: &Result{}},
	}
	agg := NewAggregate("w", recs)
	if got := agg.Scenarios[0].Warnings; strings.Join(got, ",") != "w1,w2" {
		t.Fatalf("scenario a warnings = %q, want [w1 w2]", got)
	}
	var js bytes.Buffer
	if err := agg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(js.String(), `"warnings"`); n != 1 {
		t.Fatalf("summary has %d warnings keys, want 1 (scenario b has none):\n%s", n, js.String())
	}
}
