package sim

import "testing"

// TestSchedPressureCounters drives known push patterns through the
// calendar queue and checks the pressure snapshot attributes each one
// correctly: cursor-bucket, bucket-append, overflow and behind-window
// pushes, chunk-pool use, occupancy-histogram totals, and the sort method
// each bucket took.
func TestSchedPressureCounters(t *testing.T) {
	e := New()
	var order []int64
	record := func() { order = append(order, e.Now()) }
	// The first push anchors the window: t=0 is the cursor bucket.
	e.At(0, record)
	// 20 events in the next 64 ns bucket (three chunks, counting sort);
	// the first schedules a push into that bucket once it is sorted.
	e.At(bucketWidth, func() { record(); e.At(e.Now()+1, record) })
	for i := 1; i < 20; i++ {
		e.At(bucketWidth+int64(i), record)
	}
	// Five in the bucket after (one chunk, insertion sort).
	for i := 0; i < 5; i++ {
		e.At(2*bucketWidth, record)
	}
	// Far beyond the wheel horizon (8192 buckets × 64 ns): overflow heap.
	e.At(10_000_000, record)

	p := e.SchedPressure()
	if p.PendingEvents != 27 || p.WheelEvents != 26 || p.OverflowEvents != 1 {
		t.Fatalf("pending=%d wheel=%d overflow=%d, want 27/26/1",
			p.PendingEvents, p.WheelEvents, p.OverflowEvents)
	}
	if p.CursorPushes != 1 || p.WheelPushes != 25 || p.OverflowPushes != 1 || p.BehindPushes != 0 {
		t.Fatalf("pushes cursor=%d wheel=%d overflow=%d behind=%d, want 1/25/1/0",
			p.CursorPushes, p.WheelPushes, p.OverflowPushes, p.BehindPushes)
	}
	if p.ChunkPool != 4 || p.ChunksInUse != 4 {
		t.Fatalf("chunks pool=%d in use=%d, want 4/4", p.ChunkPool, p.ChunksInUse)
	}
	if p.MaxWheelEvents != 26 || p.MaxOverflowEvents != 1 {
		t.Fatalf("max wheel=%d overflow=%d, want 26/1", p.MaxWheelEvents, p.MaxOverflowEvents)
	}
	var occSum uint64
	for _, c := range p.BucketOccupancy {
		occSum += c
	}
	if occSum != 26 {
		t.Fatalf("occupancy histogram sums to %d, want one sample per window push (26)", occSum)
	}
	// Depths 1 (four buckets' first push), 2-3 (two pushes in each of two
	// buckets) — see OccLabel.
	if p.BucketOccupancy[1] != 3 || p.BucketOccupancy[2] != 4 {
		t.Fatalf("occupancy[1]=%d occupancy[2]=%d, want 3/4",
			p.BucketOccupancy[1], p.BucketOccupancy[2])
	}

	e.Run()
	p = e.SchedPressure()
	if p.PendingEvents != 0 || len(order) != 28 {
		t.Fatalf("pending after run = %d, fired %d, want 0/28", p.PendingEvents, len(order))
	}
	if p.CursorPushes != 2 {
		t.Fatalf("cursor pushes = %d, want 2 (the push into the sorted bucket)", p.CursorPushes)
	}
	// Counting: the 20-deep bucket. Insertion: the 5-deep one, and the far
	// event's bucket after it migrated.
	if p.CountingSorts != 1 || p.InsertionSorts != 2 {
		t.Fatalf("sorts counting=%d insertion=%d, want 1/2", p.CountingSorts, p.InsertionSorts)
	}
	if p.ChunksInUse != 0 || p.ChunkPool != 4 {
		t.Fatalf("chunks pool=%d in use=%d after run, want 4/0", p.ChunkPool, p.ChunksInUse)
	}
	// The far event reached the wheel through a re-anchor at its time and
	// a migration into its bucket.
	if p.Migrations != 1 || p.Reanchors != 2 {
		t.Fatalf("migrations=%d reanchors=%d, want 1/2", p.Migrations, p.Reanchors)
	}

	// A deadline short of the next event leaves the cursor on that event's
	// bucket, ahead of the clock; a push at the clock lands behind it.
	now := e.Now()
	e.At(now+1000, record)
	e.RunUntil(now + 500)
	e.At(e.Now(), record)
	p = e.SchedPressure()
	if p.BehindPushes != 1 || p.OverflowPushes != 2 {
		t.Fatalf("behind=%d overflow=%d, want 1/2", p.BehindPushes, p.OverflowPushes)
	}
	e.Run()
	if n := len(order); n != 30 || order[n-2] != now+500 || order[n-1] != now+1000 {
		t.Fatalf("tail of order = %v, want [%d %d]", order[len(order)-2:], now+500, now+1000)
	}
}

// TestSchedPressureSnapshotIsCheapView verifies the snapshot reflects live
// scheduler state without disturbing it: capturing twice is identical, and
// capturing does not advance any counter.
func TestSchedPressureSnapshotIsCheapView(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(int64(i*1000), func() {})
	}
	a := e.SchedPressure()
	b := e.SchedPressure()
	if a != b {
		t.Fatalf("back-to-back snapshots differ:\n%+v\n%+v", a, b)
	}
}
