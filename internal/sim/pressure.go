package sim

import "math/bits"

// Scheduler-pressure telemetry: a cheap, always-on view of how hard the
// calendar queue is working. The counters live in scheduler (sched.go) and
// cost a few integer operations per push; this file is the read side — a
// plain-value snapshot embeddable in Net.Snapshot(), the telemetry
// registry, and `ooctl engine pressure`.

// occBuckets sizes the bucket-occupancy histogram: log2 depth classes
// 1, 2, 3–4, 5–8, … with everything ≥ 2^(occBuckets-2) in the last class.
const occBuckets = 16

// occIndex maps a bucket depth (≥1, observed just after a push) to its
// histogram class: floor(log2(depth)) + 1, capped.
func occIndex(depth int) int {
	i := bits.Len(uint(depth))
	if i >= occBuckets {
		i = occBuckets - 1
	}
	return i
}

// OccLabel names histogram class i for renderers: class i covers depths
// [2^(i-1), 2^i - 1], so the labels run "1", "2-3", "4-7", "8-15", … with
// the final class open-ended.
func OccLabel(i int) string {
	switch {
	case i <= 0:
		return "0"
	case i == 1:
		return "1"
	case i == occBuckets-1:
		return itoa(1<<(i-1)) + "+"
	default:
		return itoa(1<<(i-1)) + "-" + itoa(1<<i-1)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// SchedPressure is a point-in-time snapshot of scheduler pressure. All
// fields are plain values so the struct marshals deterministically.
type SchedPressure struct {
	// Residency now. OverflowEvents counts every event outside the wheel
	// window: the overflow heap and the behind-window heap.
	PendingEvents  int `json:"pending_events"`
	WheelEvents    int `json:"wheel_events"`
	OverflowEvents int `json:"overflow_events"`
	SlabCap        int `json:"slab_cap"`
	FreeSlots      int `json:"free_slots"`
	// ChunkPool is the number of bucket chunks ever allocated. The pool
	// grows only when no chunk is free, so it is also the high water of
	// ChunksInUse.
	ChunkPool   int `json:"chunk_pool"`
	ChunksInUse int `json:"chunks_in_use"`

	// Cumulative counters since engine construction. Every push is
	// exactly one of WheelPushes (appended to a bucket), CursorPushes
	// (into the sorted cursor bucket) and OverflowPushes (outside the
	// window); BehindPushes is the part of OverflowPushes that landed
	// before the window start.
	WheelPushes    uint64 `json:"wheel_pushes"`
	CursorPushes   uint64 `json:"cursor_pushes"`
	OverflowPushes uint64 `json:"overflow_pushes"`
	BehindPushes   uint64 `json:"behind_pushes"`
	Migrations     uint64 `json:"migrations"`
	InsertionSorts uint64 `json:"insertion_sorts"`
	CountingSorts  uint64 `json:"counting_sorts"`
	Reanchors      uint64 `json:"reanchors"`

	// High-water marks.
	MaxWheelEvents    int `json:"max_wheel_events"`
	MaxOverflowEvents int `json:"max_overflow_events"`

	// BucketOccupancy[i] counts wheel and cursor pushes that left their
	// bucket at a depth in occupancy class i (see OccLabel). Index 0 is
	// unused.
	BucketOccupancy [occBuckets]uint64 `json:"bucket_occupancy"`
}

// SchedPressure captures the current scheduler-pressure snapshot.
func (e *Engine) SchedPressure() SchedPressure {
	s := &e.sched
	return SchedPressure{
		PendingEvents:     s.n,
		WheelEvents:       s.wheelCount,
		OverflowEvents:    len(s.overflow) + len(s.behind),
		SlabCap:           len(s.slab),
		FreeSlots:         len(s.free),
		ChunkPool:         len(s.chunks),
		ChunksInUse:       len(s.chunks) - len(s.freeChunks),
		WheelPushes:       s.wheelPushes,
		CursorPushes:      s.cursorPushes,
		OverflowPushes:    s.overflowPushes,
		BehindPushes:      s.behindPushes,
		Migrations:        s.migrations,
		InsertionSorts:    s.insertionSorts,
		CountingSorts:     s.countingSorts,
		Reanchors:         s.reanchors,
		MaxWheelEvents:    s.maxWheel,
		MaxOverflowEvents: s.maxOverflow,
		BucketOccupancy:   s.occ,
	}
}
