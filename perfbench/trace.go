package main

import (
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Times are nanoseconds since the root span
// started; Parent is the index of the enclosing span (-1 for the root).
type span struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Epoch marks a demand.Tick that synthesized a schedule.
	Epoch bool `json:"epoch,omitempty"`
}

func (s span) layer() string   { return s.Name[:strings.IndexByte(s.Name, '.')] }
func (s span) dur() float64    { return float64(s.EndNs-s.StartNs) / 1e9 }
func (s span) isBench() bool   { return s.layer() == "bench" }
func (s span) isRunStep() bool { return s.Name == "sim.Run" || s.Name == "demand.Tick" }

// tracer keeps the spans of one workload run in memory. Span 0 is the
// root; every other span is its child. A nil tracer runs the calls
// untimed.
type tracer struct {
	t0    time.Time
	spans []span
	alloc []metrics.Sample
}

func newTracer(root string) *tracer {
	tr := &tracer{t0: time.Now(), alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	tr.spans = append(tr.spans, span{Name: root, Parent: -1, AllocBytes: tr.allocated()})
	return tr
}

func (tr *tracer) allocated() uint64 {
	metrics.Read(tr.alloc)
	return tr.alloc[0].Value.Uint64()
}

// span times fn as a child of the root and returns the span's index.
func (tr *tracer) span(name string, fn func()) int {
	if tr == nil {
		fn()
		return -1
	}
	a0 := tr.allocated()
	s := span{Name: name, Parent: 0, StartNs: time.Since(tr.t0).Nanoseconds()}
	fn()
	s.EndNs = time.Since(tr.t0).Nanoseconds()
	s.AllocBytes = tr.allocated() - a0
	tr.spans = append(tr.spans, s)
	return len(tr.spans) - 1
}

// end closes the root span.
func (tr *tracer) end() {
	root := &tr.spans[0]
	root.EndNs = time.Since(tr.t0).Nanoseconds()
	root.AllocBytes = tr.allocated() - root.AllocBytes
}

// selfTimes returns each layer's self time in seconds, and the root's
// own self time: the part of the root span no child covers. Children are
// leaves, so a child's self time is its whole duration.
func selfTimes(spans []span) (layers map[string]float64, root float64) {
	layers = map[string]float64{}
	root = spans[0].dur()
	for _, s := range spans[1:] {
		layers[s.layer()] += s.dur()
		root -= s.dur()
	}
	return layers, root
}

// sumSpans totals the durations and allocations of the spans keep selects.
func sumSpans(spans []span, keep func(span) bool) (secs float64, alloc uint64) {
	for _, s := range spans[1:] {
		if keep(s) {
			secs += s.dur()
			alloc += s.AllocBytes
		}
	}
	return secs, alloc
}
