package sim

import (
	"testing"
	"time"
)

func TestClassCountsAndProfiling(t *testing.T) {
	e := New()
	e.EnableProfiling(true)
	ran := 0
	for i := 0; i < 5; i++ {
		e.AtClass(int64(i)*10, ClassLinkDeliver, func() { ran++ })
	}
	e.AtClass(100, ClassSwitchIngress, func() { time.Sleep(time.Millisecond) })
	e.At(200, func() {}) // ClassOther
	e.Run()
	if ran != 5 {
		t.Fatalf("ran = %d", ran)
	}
	stats := e.ProfileStats()
	byClass := map[Class]ClassStats{}
	for _, s := range stats {
		byClass[s.Class] = s
	}
	if byClass[ClassLinkDeliver].Count != 5 {
		t.Fatalf("link.deliver count = %d", byClass[ClassLinkDeliver].Count)
	}
	if byClass[ClassOther].Count != 1 {
		t.Fatalf("other count = %d", byClass[ClassOther].Count)
	}
	if byClass[ClassSwitchIngress].WallNs < int64(500*time.Microsecond) {
		t.Fatalf("switch.ingress wall = %dns, want >= 0.5ms", byClass[ClassSwitchIngress].WallNs)
	}
	if ClassLinkDeliver.String() != "link.deliver" || ClassOther.String() != "other" {
		t.Fatal("class names wrong")
	}
}

func TestClassCountsWithoutProfiling(t *testing.T) {
	e := New()
	e.AtClass(1, ClassHostTx, func() {})
	e.Run()
	stats := e.ProfileStats()
	if len(stats) != 1 || stats[0].Class != ClassHostTx || stats[0].Count != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].WallNs != 0 {
		t.Fatalf("wall time collected while profiling off: %d", stats[0].WallNs)
	}
}

func TestReportProgress(t *testing.T) {
	e := New()
	var reports []Progress
	e.ReportProgress(1000, func(p Progress) bool {
		reports = append(reports, p)
		return len(reports) < 3
	})
	// Keep the queue non-empty well past the reports.
	for i := int64(1); i <= 100; i++ {
		e.At(i*100, func() {})
	}
	e.RunUntil(20_000)
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3 (fn returning false must stop the reporter)", len(reports))
	}
	for i, p := range reports {
		if want := int64(i+1) * 1000; p.VirtualNs != want {
			t.Fatalf("report %d at virtual %d, want %d", i, p.VirtualNs, want)
		}
		if p.Ratio < 0 {
			t.Fatalf("negative ratio: %+v", p)
		}
	}
}

// mixedWorkload runs a fixed mixed-class workload — five instants with
// eight same-instant events each, plus drain-triggered cascades — and
// returns the per-class profile.
func mixedWorkload() []ClassStats {
	e := New()
	e.EnableProfiling(true)
	classes := []Class{ClassLinkDeliver, ClassSwitchIngress, ClassSwitchDrain, ClassHostTx}
	spin := 0
	for i := 0; i < 40; i++ {
		c := classes[i%len(classes)]
		t0 := int64((i % 5) * 100)
		e.AtClass(t0, c, func() {
			// Enough work that wall-time attribution is measurable.
			for k := 0; k < 2000; k++ {
				spin += k
			}
			if c == ClassSwitchDrain {
				e.AfterClass(50, ClassLinkDeliver, func() {})
			}
		})
	}
	e.Run()
	_ = spin
	return e.ProfileStats()
}

// layoutWorkload runs mixedWorkload's 40 events and drain cascades laid
// out perBucket to a wheel bucket: the instants are two 64 ns buckets
// apart, so each drain's link.deliver 50 ns later lands in its own,
// already-sorted cursor bucket. A host.tx event at time 0 is pushed first
// and anchors the window, so the workload's buckets are filled by append
// and sorted when the cursor reaches them. It returns the per-class
// profile and the scheduler pressure, which records the sort path taken.
func layoutWorkload(perBucket int) ([]ClassStats, SchedPressure) {
	e := New()
	e.EnableProfiling(true)
	spin := 0
	work := func() {
		// Enough work that wall-time attribution is measurable.
		for k := 0; k < 2000; k++ {
			spin += k
		}
	}
	e.AtClass(0, ClassHostTx, work)
	classes := []Class{ClassLinkDeliver, ClassSwitchIngress, ClassSwitchDrain, ClassHostTx}
	instants := 40 / perBucket
	for i := 0; i < 40; i++ {
		c := classes[i%len(classes)]
		t0 := int64(1+i%instants) * 2 * bucketWidth
		e.AtClass(t0, c, func() {
			work()
			if c == ClassSwitchDrain {
				e.AfterClass(50, ClassLinkDeliver, func() {})
			}
		})
	}
	e.Run()
	_ = spin
	return e.ProfileStats(), e.SchedPressure()
}

func countsOf(stats []ClassStats) map[Class]uint64 {
	m := map[Class]uint64{}
	for _, s := range stats {
		m[s.Class] = s.Count
	}
	return m
}

// TestProfileStatsDeterministicAcrossRuns: per-class counts follow the
// workload exactly and are identical run to run, and every class that has
// a count also accumulated wall time (wall time is real time and may
// differ).
func TestProfileStatsDeterministicAcrossRuns(t *testing.T) {
	first := mixedWorkload()
	a := countsOf(first)
	if a[ClassLinkDeliver] != 20 || a[ClassSwitchDrain] != 10 ||
		a[ClassSwitchIngress] != 10 || a[ClassHostTx] != 10 || len(a) != 4 {
		t.Fatalf("counts %v, want 10 per class plus 10 drain-spawned link.delivers", a)
	}
	for _, s := range first {
		if s.WallNs <= 0 {
			t.Fatalf("class %s count=%d but wall=%d", s.Class, s.Count, s.WallNs)
		}
	}
	b := countsOf(mixedWorkload())
	if len(a) != len(b) {
		t.Fatalf("class sets differ: %v vs %v", a, b)
	}
	for c, n := range a {
		if b[c] != n {
			t.Fatalf("class %s: %d vs %d across identical runs", c, n, b[c])
		}
	}
}

// TestProfileStatsInvariantUnderBatchedDispatch: per-class counts and
// wall-time attribution do not depend on how a bucket is dispatched. The
// same events run one per bucket, eight per bucket (one chunk, insertion
// sort) and forty in one bucket (five chunks, counting sort); the
// drain-spawned events take the cursor-heap path in every layout.
func TestProfileStatsInvariantUnderBatchedDispatch(t *testing.T) {
	results := map[int][]ClassStats{}
	for _, perBucket := range []int{1, 8, 40} {
		stats, p := layoutWorkload(perBucket)
		results[perBucket] = stats
		if p.WheelPushes != 40 || p.CursorPushes != 11 {
			t.Fatalf("%d per bucket: %d wheel and %d cursor pushes, want 40 appends and the anchor plus 10 drain-spawned events",
				perBucket, p.WheelPushes, p.CursorPushes)
		}
		switch {
		case perBucket > insertionMax && p.CountingSorts == 0:
			t.Fatalf("%d per bucket took no counting sort: %+v", perBucket, p)
		case perBucket <= insertionMax && (p.CountingSorts != 0 || p.InsertionSorts == 0):
			t.Fatalf("%d per bucket did not take the insertion path: %+v", perBucket, p)
		}
	}

	base := countsOf(results[1])
	if len(base) == 0 {
		t.Fatal("workload produced no profiled classes")
	}
	if base[ClassLinkDeliver] != 20 || base[ClassSwitchDrain] != 10 || base[ClassHostTx] != 11 {
		t.Fatalf("unexpected baseline counts %v (want 10 drains spawning 10 extra link.delivers, 10 host.tx plus the anchor)", base)
	}
	for _, perBucket := range []int{8, 40} {
		got := countsOf(results[perBucket])
		if len(got) != len(base) {
			t.Fatalf("%d per bucket: class set %v differs from baseline %v", perBucket, got, base)
		}
		for c, n := range base {
			if got[c] != n {
				t.Fatalf("%d per bucket: class %s count %d, want %d", perBucket, c, got[c], n)
			}
		}
	}
	// Wall-time attribution follows the same classes in every layout: each
	// profiled class accumulated measurable time.
	for perBucket, stats := range results {
		for _, s := range stats {
			if s.WallNs <= 0 {
				t.Fatalf("%d per bucket: class %s count=%d but wall=%d",
					perBucket, s.Class, s.Count, s.WallNs)
			}
		}
	}
}
