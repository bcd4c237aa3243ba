package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin down the calendar-queue scheduler's edge behavior: the
// RunUntil fence sitting exactly on an event, halting with same-instant
// events still queued, periodic timers whose interval exceeds the wheel
// horizon, saturated far-future timestamps, the zero-allocation guarantee,
// and a differential check against the straightforward container/heap
// scheduler the seed engine used.

// TestRunUntilDeadlineOnEvent: an event whose timestamp equals the RunUntil
// deadline executes (the fence is inclusive), and an event one nanosecond
// later does not.
func TestRunUntilDeadlineOnEvent(t *testing.T) {
	e := New()
	var fired []int64
	e.At(100, func() { fired = append(fired, e.Now()) })
	e.At(101, func() { fired = append(fired, e.Now()) })
	e.RunUntil(100)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v, want exactly the t=100 event", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(101)
	if len(fired) != 2 || fired[1] != 101 {
		t.Fatalf("fired after resume = %v", fired)
	}
}

// TestHaltWithSameInstantPending: Halt inside a handler stops dispatch
// immediately, leaving later same-instant events queued; resuming runs them
// at the same virtual time in the original order.
func TestHaltWithSameInstantPending(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() { got = append(got, 1); e.Halt() })
	e.At(5, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 1 {
		t.Fatalf("ran %v before halt, want just the first", got)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5", e.Now())
	}
	e.Run()
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("resume order = %v, want [1 2 3]", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now after resume = %d, want 5 (same instant)", e.Now())
	}
}

// TestEveryAcrossWheelBoundary: a periodic timer whose interval exceeds the
// wheel span lives in the overflow heap and must still tick exactly on
// schedule as events migrate into (or are served past) the wheel window.
func TestEveryAcrossWheelBoundary(t *testing.T) {
	if interval := int64(5 * wheelSpan / 2); interval <= wheelSpan {
		t.Fatal("test interval must exceed the wheel span")
	}
	e := New()
	interval := int64(5 * wheelSpan / 2) // 2.5 horizons
	var ticks []int64
	e.Every(0, interval, func() bool {
		ticks = append(ticks, e.Now())
		return len(ticks) < 8
	})
	// Interleave short-range traffic so the wheel window keeps advancing.
	e.Every(1, bucketWidth/2, func() bool { return e.Now() < 10*interval })
	e.Run()
	if len(ticks) != 8 {
		t.Fatalf("ticks = %d, want 8", len(ticks))
	}
	for i, at := range ticks {
		if want := int64(i) * interval; at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

// TestFarFutureTimestamps: timestamps adjacent to MaxInt64 must neither
// overflow wheel arithmetic nor stall; the engine serves them from the
// overflow heap in order.
func TestFarFutureTimestamps(t *testing.T) {
	e := New()
	var got []int64
	e.At(math.MaxInt64, func() { got = append(got, e.Now()) })
	e.At(math.MaxInt64-1, func() { got = append(got, e.Now()) })
	e.At(10, func() { got = append(got, e.Now()) })
	e.Run()
	want := []int64{10, math.MaxInt64 - 1, math.MaxInt64}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got = %v, want %v", got, want)
	}
}

// TestWindowJumpThenNearEvent: after the wheel anchors at a far-future
// event, a handler scheduling before the (re-based) window start must not
// be lost or reordered — the push lands in overflow and min() serves it by
// comparison.
func TestWindowJumpThenNearEvent(t *testing.T) {
	e := New()
	var got []int64
	record := func() { got = append(got, e.Now()) }
	e.At(2*wheelSpan, func() {
		record()
		// Anchor is now near 2*wheelSpan; schedule a same-instant and a
		// next-tick event plus one far ahead again.
		e.At(e.Now(), record)
		e.At(e.Now()+1, record)
		e.At(e.Now()+10*wheelSpan, record)
	})
	e.RunUntil(2 * wheelSpan)
	e.Run()
	want := []int64{2 * wheelSpan, 2 * wheelSpan, 2*wheelSpan + 1, 12 * wheelSpan}
	if len(got) != 4 {
		t.Fatalf("got %d events: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

// TestBatchReanchorOrder pins ordering across a window re-anchor inside
// a handler. Scenario: the queue fully drains inside a handler, whose next
// push re-anchors the wheel window; a second push then lands in a bucket
// whose index aliases the bucket the cursor was serving. A run loop that
// kept serving that bucket index past the re-anchor would pop the later
// event first and regress the clock.
func TestBatchReanchorOrder(t *testing.T) {
	e := New()
	tA := int64(bucketWidth) // lands in the bucket after the re-anchored cursor
	tB := int64(wheelSpan)   // aliases bucket 0 in the re-anchored window
	if int(tB>>wheelShift)&wheelMask != 0 {
		t.Fatalf("test geometry broken: tB=%d does not alias bucket 0", tB)
	}
	var order []int64
	e.At(0, func() {}) // companion: consumed first, so the queue is
	// empty while the second handler runs
	e.At(0, func() {
		// n == 0 here: the first push below re-anchors the wheel window.
		e.At(tA, func() { order = append(order, e.Now()) })
		e.At(tB, func() { order = append(order, e.Now()) })
	})
	e.Run()
	if len(order) != 2 || order[0] != tA || order[1] != tB {
		t.Fatalf("events fired as %v, want [%d %d]", order, tA, tB)
	}
}

// TestScheduleZeroAllocSteadyState: once the slab, chunk pool and run
// buffers are warm, the schedule → dispatch cycle must not allocate —
// for a lone event, and for bursts deep enough that every cycle takes
// chunks from the pool, counting-sorts a bucket and returns the chunks.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	e := New()
	act := nopAction{}
	for i := 0; i < 1024; i++ {
		e.AtEvent(int64(i), ClassOther, act, nil, 0)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtEvent(e.Now()+10, ClassOther, act, nil, 0)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocates %.1f/op, want 0", allocs)
	}

	// One event anchors the window, then 40 in one later bucket (five
	// chunks) and 24 more one per bucket.
	burst := func() {
		e.AtEvent(e.Now()+1, ClassOther, act, nil, 0)
		base := e.Now() + 10*bucketWidth
		for i := 0; i < 40; i++ {
			e.AtEvent(base+int64(i%3), ClassOther, act, nil, 0)
		}
		for i := 1; i <= 24; i++ {
			e.AtEvent(base+int64(i)*bucketWidth, ClassOther, act, nil, 0)
		}
		e.Run()
	}
	burst()
	before := e.SchedPressure()
	allocs = testing.AllocsPerRun(1000, burst)
	after := e.SchedPressure()
	if allocs != 0 {
		t.Fatalf("steady-state burst allocates %.1f/op, want 0", allocs)
	}
	if after.ChunkPool != before.ChunkPool || after.ChunkPool < 5 || after.ChunksInUse != 0 {
		t.Fatalf("chunk pool %d → %d (in use %d), want a fixed pool of at least 5 recycled chunks",
			before.ChunkPool, after.ChunkPool, after.ChunksInUse)
	}
	if after.CountingSorts <= before.CountingSorts {
		t.Fatal("burst never took the counting sort")
	}
}

type nopAction struct{}

func (nopAction) RunEvent(any, int64) {}

// --- differential test against a container/heap reference ---------------

// refEvent / refQueue reimplement the seed engine's event store: a binary
// heap of (t, seq) pointers via container/heap. The calendar queue must
// reproduce its execution order exactly.
type refEvent struct {
	t   int64
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)    { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)      { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any        { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q *refQueue) next() *refEvent { return heap.Pop(q).(*refEvent) }
func (q *refQueue) add(e *refEvent) { heap.Push(q, e) }

// schedSpec is one root event of a differential run: its time, and the
// delays of the followups its handler schedules (negative = in the past,
// clamped to now). A late root is pushed from outside the run loop, at
// now + t, after one of the run windows (see runVsHeap).
type schedSpec struct {
	t         int64
	followups []int64
	late      bool
}

// runVsHeap drives the calendar-queue engine and the reference heap through
// the same schedule and returns the first difference in execution order,
// or "" when they agree. step > 0 runs the engine in RunUntil windows of
// that width instead of one Run, so runs stop mid-bucket with the cursor
// possibly ahead of the clock. After the k-th window the k-th late root is
// pushed; one landing before the cursor exercises the behind-window path.
func runVsHeap(specs []schedSpec, step int64) string {
	n := len(specs)
	var late []int
	for i, s := range specs {
		if s.late {
			late = append(late, i)
		}
	}

	// Run the real engine.
	var gotOrder []int
	e := New()
	var schedule func(id int, at int64, followups []int64)
	nextID := n
	schedule = func(id int, at int64, followups []int64) {
		// Clamp here (identically to the engine's normal-build clamp)
		// so `-tags simdebug` builds don't panic on followups that
		// would land in the past.
		if at < e.Now() {
			at = e.Now()
		}
		e.At(at, func() {
			gotOrder = append(gotOrder, id)
			for _, d := range followups {
				fid := nextID
				nextID++
				schedule(fid, e.Now()+d, nil)
			}
		})
	}
	for i, s := range specs {
		if !s.late {
			schedule(i, s.t, s.followups)
		}
	}
	for k := 0; e.Pending() > 0 || k < len(late); k++ {
		if step <= 0 {
			e.Run()
		} else {
			e.RunUntil(e.Now() + step)
		}
		if k < len(late) {
			s := specs[late[k]]
			schedule(late[k], e.Now()+s.t, s.followups)
		}
	}

	// Run the reference heap with the same logic (including the
	// past-time clamp) and the same seq assignment discipline.
	var wantOrder []int
	var rq refQueue
	var rnow int64
	var rseq uint64
	followupsOf := make(map[int][]int64, n)
	for i, s := range specs {
		followupsOf[i] = s.followups
		if !s.late {
			rseq++
			rq.add(&refEvent{t: s.t, seq: rseq, id: i})
		}
	}
	rNextID := n
	for k := 0; rq.Len() > 0 || k < len(late); k++ {
		deadline := int64(math.MaxInt64)
		if step > 0 {
			deadline = rnow + step
		}
		for rq.Len() > 0 && rq[0].t <= deadline {
			ev := rq.next()
			rnow = ev.t
			wantOrder = append(wantOrder, ev.id)
			for _, d := range followupsOf[ev.id] {
				at := rnow + d
				if at < rnow {
					at = rnow
				}
				rseq++
				rq.add(&refEvent{t: at, seq: rseq, id: rNextID})
				rNextID++
			}
		}
		if step > 0 {
			rnow = deadline
		}
		if k < len(late) {
			rseq++
			rq.add(&refEvent{t: rnow + specs[late[k]].t, seq: rseq, id: late[k]})
		}
	}

	if len(gotOrder) != len(wantOrder) {
		return fmt.Sprintf("executed %d events, reference executed %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			return fmt.Sprintf("execution order diverges at %d: got event %d, reference %d",
				i, gotOrder[i], wantOrder[i])
		}
	}
	return ""
}

// TestDifferentialVsHeap drives the calendar-queue engine and the reference
// heap with an identical randomized schedule — bursty near-future times,
// same-instant clusters, overflow-range timers, and handler-scheduled
// followups — and asserts the execution orders are identical.
func TestDifferentialVsHeap(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		// Generate the root schedule plus deterministic followup rules:
		// event i, when executed, schedules followups at now+delta.
		n := 200 + rng.Intn(200)
		specs := make([]schedSpec, n)
		for i := range specs {
			var tt int64
			switch rng.Intn(4) {
			case 0: // same-instant cluster
				tt = int64(rng.Intn(4)) * 64
			case 1: // near future, within the wheel
				tt = int64(rng.Intn(int(wheelSpan)))
			case 2: // overflow range
				tt = wheelSpan + int64(rng.Intn(int(wheelSpan*20)))
			default: // bucket-boundary adjacent
				tt = int64(rng.Intn(64))*bucketWidth + int64(rng.Intn(3)) - 1
				if tt < 0 {
					tt = 0
				}
			}
			s := schedSpec{t: tt}
			for f := rng.Intn(3); f > 0; f-- {
				s.followups = append(s.followups, int64(rng.Intn(int(wheelSpan*3)))-bucketWidth)
			}
			// Odd trials run in RunUntil windows with some roots pushed
			// between them.
			s.late = trial%2 == 1 && rng.Intn(8) == 0
			specs[i] = s
		}
		step := int64(trial%2) * 997 * int64(1+trial%7)
		if msg := runVsHeap(specs, step); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

// FuzzSchedulerVsHeap is TestDifferentialVsHeap as a native fuzz target:
// the fuzzer writes the schedule. Byte 0 picks the run mode (0 = Run,
// else RunUntil windows of byte×997 ns). Each root event then reads a
// control byte — low two bits the time class of the randomized test
// (same-instant cluster, near future, overflow range, bucket boundary),
// next two bits its followup count, bit 4 a late root (its time is then a
// delay from the clock at injection) — and a 16-bit time operand, then a
// 16-bit delay operand per followup. Seeds live in
// testdata/fuzz/FuzzSchedulerVsHeap.
func FuzzSchedulerVsHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 7, 0x10, 0x20, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, step := decodeSchedule(data)
		if msg := runVsHeap(specs, step); msg != "" {
			t.Fatal(msg)
		}
	})
}

// decodeSchedule maps fuzz bytes onto the randomized test's schedule
// space; see FuzzSchedulerVsHeap. At most 512 root events are read.
func decodeSchedule(data []byte) ([]schedSpec, int64) {
	if len(data) == 0 {
		return nil, 0
	}
	step := int64(data[0]) * 997
	data = data[1:]
	u16 := func() (int64, bool) {
		if len(data) < 2 {
			return 0, false
		}
		v := int64(data[0])<<8 | int64(data[1])
		data = data[2:]
		return v, true
	}
	var specs []schedSpec
	for len(data) > 0 && len(specs) < 512 {
		ctl := data[0]
		data = data[1:]
		u, ok := u16()
		if !ok {
			break
		}
		var tt int64
		switch ctl & 3 {
		case 0: // same-instant cluster
			tt = u % 4 * 64
		case 1: // near future, within the wheel
			tt = u * (wheelSpan >> 16)
		case 2: // overflow range, up to ~20 wheel spans out
			tt = wheelSpan + u*(wheelSpan*20>>16)
		default: // bucket-boundary adjacent
			tt = max(0, (u>>2)%64*bucketWidth+u&3-1)
		}
		s := schedSpec{t: tt, late: ctl&16 != 0}
		for k := ctl >> 2 & 3; k > 0; k-- {
			d, ok := u16()
			if !ok {
				break
			}
			// Up to three wheel spans out, or one bucket into the past.
			s.followups = append(s.followups, d*(wheelSpan*3>>16)-bucketWidth)
		}
		specs = append(specs, s)
	}
	return specs, step
}
