package sim

import (
	"math"
	"slices"
)

// This file is the engine's event store: a calendar-queue timing wheel for
// near-future events (the overwhelmingly common case — per-slice rotations,
// link serialization, pacing ticks) backed by an overflow 4-ary heap for
// far-future ones, with event payloads (handler closure + profiling class)
// kept in a slab with a free list. The structure deliberately mirrors the
// paper's §5 calendar queues: the wheel buckets are "slices" of real time
// and the cursor is the rotation. Steady-state scheduling performs zero
// heap allocations — every backing array (chunks, runs, heaps, slab, free
// lists) is reused across events.
//
// A bucket is an unsorted, append-only list of fixed-size chunks drawn
// from one shared pool, so memory follows the number of pending events
// rather than buckets × peak depth. A push is an append. When the cursor
// reaches a bucket, its items are gathered into one run and sorted once:
// insertion sort for short runs, a stable counting sort on the 6-bit
// in-bucket time offset for longer ones. Events pushed into the cursor
// bucket after that go to a small heap merged at pop. On the 16-ToR
// rotornet-vlb benchmark (rpc load 0.3, 50 ms, seed 7) 79% of pushes
// append to a bucket, 20% land in the sorted cursor bucket and 1%
// overflow (7.09 M, 1.75 M and 0.10 M of 8.94 M); 82% of the 0.52 M
// bucket sorts take the insertion path, and the chunk pool peaks at
// 1,394 chunks (279 KB).
//
// Determinism: the scheduler realizes the exact (t, seq) total order the
// seed engine's binary heap produced. The heaps and the insertion sort
// compare (t, seq). The counting sort orders by t alone and keeps append
// order among equal times, which is seq order:
//
//   - direct pushes arrive in seq order (the engine numbers them as it
//     pushes them);
//   - overflow events migrate, in (t, seq) order, into a bucket when it
//     enters the window, before any direct push can reach that bucket;
//   - pushes into the cursor bucket after it was sorted go to the cursor
//     heap, never into the sorted run;
//   - pushes behind the window go to the behind heap, not into overflow,
//     where they would block migration.
//
// The stores are separated by time: behind < cursor bucket < later
// buckets < overflow, so a pop compares only the cursor run against the
// cursor heap.

// Wheel geometry. Bucket width 64 ns and 8192 buckets give a ~524 µs
// horizon: slice rotations (tens to hundreds of µs), wire propagation, and
// serialization completions all land in the wheel, while RTO checks and
// long timers overflow to the heap. The 64 ns width keeps most buckets at
// or below the insertion-sort cutoff at line-rate event densities and the
// counting sort to 64 counters.
const (
	wheelShift   = 6 // log2 of bucket width in ns
	bucketWidth  = int64(1) << wheelShift
	wheelBuckets = 8192
	wheelMask    = wheelBuckets - 1
	wheelSpan    = bucketWidth * wheelBuckets
)

// chunkItems is the capacity of one pooled bucket chunk; insertionMax is
// the longest run sorted by insertion rather than by counting.
const (
	chunkItems   = 8
	insertionMax = 16
)

// item is one queued event's sort key plus the slab slot of its payload.
type item struct {
	t    int64
	seq  uint64
	slot int32
}

// itemLess is the engine's total order: time, then scheduling order.
func itemLess(a, b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Action is a pre-bound event target for the closure-free scheduling path
// (Engine.AtEvent/AfterEvent): a long-lived object whose RunEvent is
// invoked with the operands recorded at scheduling time. Devices convert
// themselves (or a tiny adapter) to an Action once at construction; the
// per-event cost is then three slab stores instead of a closure
// allocation. arg carries a pointer operand (packet, queue); v carries a
// scalar (port number, byte count) — whatever the adapter defined.
type Action interface {
	RunEvent(arg any, v int64)
}

// eventRec is the slab-resident payload of one queued event: either a
// closure (fn) or a pre-bound action with its operands.
type eventRec struct {
	fn    func()
	act   Action
	arg   any
	v     int64
	class Class
	// chain is the causality-ledger chain id this event extends (0 = none;
	// always 0 when no ledger is attached). See ledger.go.
	chain int32
}

// chunk is one pooled block of a bucket's append-only item list.
type chunk struct {
	items [chunkItems]item
	next  int32 // following chunk of the same bucket
}

// bucket is one calendar slot: n unsorted items in append order, filling
// the chunks head → … → tail in turn. head and tail are meaningful only
// while n > 0.
type bucket struct {
	head, tail int32
	n          int32
}

// Sources peek can select the next event from.
const (
	srcRun = iota
	srcCursor
	srcBehind
	srcOverflow
)

// scheduler is the calendar-queue/heap event store.
type scheduler struct {
	slab []eventRec
	free []int32 // reusable slab slots

	wheel       [wheelBuckets]bucket
	chunks      []chunk
	freeChunks  []int32
	wheelCount  int   // events in the window: buckets, run and cursor heap
	cursor      int   // bucket covering [cursorStart, cursorEnd)
	cursorStart int64 // aligned to bucketWidth
	cursorEnd   int64
	wheelEnd    int64 // exclusive horizon of the wheel window

	// The cursor bucket, sorted: run[runPos:] holds what it held when the
	// cursor reached it, cursorHeap what was pushed into it since.
	run        []item
	runPos     int
	spare      []item // counting-sort output buffer, swapped with run
	cursorHeap itemHeap

	behind   itemHeap // events before cursorStart
	overflow itemHeap // events at or after wheelEnd

	src int // where the event peek located sits

	n int // total queued events

	// Pressure telemetry (pressure.go): always collected — a handful of
	// integer operations per push keeps the cost in the noise, and having
	// the counters unconditionally live means `ooctl engine pressure` and
	// /snapshot never need a flag flip to explain a slow run.
	wheelPushes    uint64 // pushes appended to a bucket
	cursorPushes   uint64 // pushes into the sorted cursor bucket
	overflowPushes uint64 // pushes outside the window, behind it included
	behindPushes   uint64 // pushes behind the window
	migrations     uint64 // overflow→wheel migrations
	insertionSorts uint64
	countingSorts  uint64
	reanchors      uint64
	occ            [occBuckets]uint64
	maxWheel       int // high-water wheel residency
	maxOverflow    int // high-water overflow + behind residency
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// anchor re-bases the wheel window so t falls in the cursor bucket. Only
// legal when the window is empty (bucket indices would alias otherwise).
func (s *scheduler) anchor(t int64) {
	s.cursor = int(t>>wheelShift) & wheelMask
	s.setCursorStart(t >> wheelShift << wheelShift)
	s.reanchors++
}

func (s *scheduler) setCursorStart(t int64) {
	s.cursorStart = t
	s.cursorEnd = satAdd(t, bucketWidth)
	s.wheelEnd = satAdd(t, wheelSpan)
}

// push enqueues an event at time t with scheduling order seq.
func (s *scheduler) push(t int64, seq uint64, rec eventRec) {
	var slot int32
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, eventRec{})
	}
	s.slab[slot] = rec
	it := item{t: t, seq: seq, slot: slot}
	if s.n == 0 {
		s.anchor(t)
	}
	s.n++
	switch {
	case t >= s.cursorEnd && t < s.wheelEnd:
		b := &s.wheel[int(t>>wheelShift)&wheelMask]
		s.appendItem(b, it)
		s.wheelPushes++
		s.occ[occIndex(int(b.n))]++
	case t >= s.cursorStart && t < s.cursorEnd:
		s.cursorHeap.push(it)
		s.cursorPushes++
		s.occ[occIndex(len(s.run)-s.runPos+len(s.cursorHeap))]++
	default:
		s.overflowPushes++
		if t < s.cursorStart {
			// The cursor is ahead of the clock (a RunUntil deadline fell
			// before the next event), or the window was anchored at an
			// earlier push with a later time.
			s.behindPushes++
			s.behind.push(it)
		} else {
			s.overflow.push(it)
		}
		if k := len(s.overflow) + len(s.behind); k > s.maxOverflow {
			s.maxOverflow = k
		}
		return
	}
	s.wheelCount++
	if s.wheelCount > s.maxWheel {
		s.maxWheel = s.wheelCount
	}
}

// appendItem adds it at the end of bucket b, taking a pooled chunk when
// the tail chunk is full.
func (s *scheduler) appendItem(b *bucket, it item) {
	k := b.n & (chunkItems - 1)
	if k == 0 {
		var c int32
		if f := len(s.freeChunks); f > 0 {
			c = s.freeChunks[f-1]
			s.freeChunks = s.freeChunks[:f-1]
		} else {
			c = int32(len(s.chunks))
			s.chunks = append(s.chunks, chunk{})
		}
		if b.n == 0 {
			b.head = c
		} else {
			s.chunks[b.tail].next = c
		}
		b.tail = c
	}
	s.chunks[b.tail].items[k] = it
	b.n++
}

// peek locates the earliest queued event and returns its time; take then
// removes it. Requires n > 0. Advancing the cursor here (past empty
// buckets, or to a re-anchored window) is safe even when the caller then
// stops at a deadline: later pushes before the new cursor go to the
// behind heap.
func (s *scheduler) peek() int64 {
	if len(s.behind) > 0 {
		s.src = srcBehind
		return s.behind[0].t
	}
	for {
		if s.runPos < len(s.run) {
			if len(s.cursorHeap) > 0 && itemLess(s.cursorHeap[0], s.run[s.runPos]) {
				s.src = srcCursor
				return s.cursorHeap[0].t
			}
			s.src = srcRun
			return s.run[s.runPos].t
		}
		if len(s.cursorHeap) > 0 {
			s.src = srcCursor
			return s.cursorHeap[0].t
		}
		if s.wheelCount == 0 {
			// Only overflow events remain: re-base the window at the
			// earliest of them.
			s.anchor(s.overflow[0].t)
			s.migrate()
			if s.wheelCount == 0 {
				// Saturated horizon (times near MaxInt64): serve from
				// overflow.
				s.src = srcOverflow
				return s.overflow[0].t
			}
			s.gather()
			continue
		}
		s.advance()
	}
}

// take removes the event peek located and recycles its slab slot. The
// sequence number rides along so dispatch (and the determinism auditor's
// digest) sees the full (t, seq) identity of the event it executes.
func (s *scheduler) take() (t int64, seq uint64, rec eventRec) {
	var it item
	switch s.src {
	case srcRun:
		it = s.run[s.runPos]
		s.runPos++
		s.wheelCount--
	case srcCursor:
		it = s.cursorHeap.pop()
		s.wheelCount--
	case srcBehind:
		it = s.behind.pop()
	default:
		it = s.overflow.pop()
	}
	s.n--
	r := &s.slab[it.slot]
	rec = *r
	*r = eventRec{} // drop closure/operand references; the slot is free for reuse
	s.free = append(s.free, it.slot)
	return it.t, it.seq, rec
}

// advance rotates the cursor to the next bucket, extending the horizon by
// one bucket width, pulling newly covered overflow events into the bucket
// that entered the window, and sorting the new cursor bucket.
func (s *scheduler) advance() {
	s.cursor = (s.cursor + 1) & wheelMask
	s.setCursorStart(satAdd(s.cursorStart, bucketWidth))
	s.migrate()
	s.gather()
}

// migrate appends the overflow events that now fall inside the window to
// their buckets, in (t, seq) order. Every overflow event lies at or after
// cursorStart, and each bucket it can reach is still empty of direct
// pushes: it entered the window just now, or the window was just
// re-anchored.
func (s *scheduler) migrate() {
	for len(s.overflow) > 0 && s.overflow[0].t < s.wheelEnd {
		it := s.overflow.pop()
		s.appendItem(&s.wheel[int(it.t>>wheelShift)&wheelMask], it)
		s.migrations++
		s.wheelCount++
		if s.wheelCount > s.maxWheel {
			s.maxWheel = s.wheelCount
		}
	}
}

// gather moves the cursor bucket's items into the run, returns its chunks
// to the pool and sorts the run. The run is empty on entry.
func (s *scheduler) gather() {
	b := &s.wheel[s.cursor]
	n := int(b.n)
	if n == 0 {
		return
	}
	run := s.run[:0]
	for c := b.head; ; c = s.chunks[c].next {
		k := min(n-len(run), chunkItems)
		run = append(run, s.chunks[c].items[:k]...)
		s.freeChunks = append(s.freeChunks, c)
		if len(run) == n {
			break
		}
	}
	b.n = 0
	if n <= insertionMax {
		insertionSort(run)
		s.insertionSorts++
	} else {
		run = s.countingSort(run)
		s.countingSorts++
	}
	s.run, s.runPos = run, 0
}

func insertionSort(a []item) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && itemLess(x, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// countingSort stably sorts one bucket's items by their offset within the
// bucket. Stability keeps append order, which is seq order, among equal
// times. The simdebug perturbation harness (PerturbSwapSeq) hands two
// events each other's seq, breaking that premise on purpose, so simdebug
// builds finish with an insertion pass — linear on a sorted run.
func (s *scheduler) countingSort(run []item) []item {
	var start [bucketWidth + 1]int32
	for _, it := range run {
		start[it.t&(bucketWidth-1)+1]++
	}
	for o := 1; o < len(start); o++ {
		start[o] += start[o-1]
	}
	out := slices.Grow(s.spare[:0], len(run))[:len(run)]
	for _, it := range run {
		o := it.t & (bucketWidth - 1)
		out[start[o]] = it
		start[o]++
	}
	s.spare = run
	if simDebug {
		insertionSort(out)
	}
	return out
}

// itemHeap is a 4-ary min-heap of items ordered by (t, seq). Values are
// stored inline (no pointers, no interface boxing) and the backing array
// is retained across fill/drain cycles, so steady-state push/pop performs
// no allocations. 4-ary trades slightly more comparisons per level for
// half the depth and better cache behavior than binary. Used for the
// cursor, behind and overflow heaps.
type itemHeap []item

func (h *itemHeap) push(it item) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !itemLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *itemHeap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if itemLess(s[j], s[m]) {
				m = j
			}
		}
		if !itemLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
