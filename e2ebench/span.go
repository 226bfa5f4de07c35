package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share op; parent is -1 for the op's root span.
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Duration // since the tracer's epoch
	// allocStart/allocEnd are the process's cumulative heap allocation
	// bytes at the span boundaries.
	allocStart, allocEnd uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for the traced run. It serves one
// goroutine: the open-span stack supplies each span's parent.
type tracer struct {
	epoch  time.Time
	op     int
	spans  []span
	open   []int
	counts map[string]float64
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: t.op, allocStart: t.heapAllocs(), start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.allocEnd = t.heapAllocs()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("e2ebench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// add accumulates a layer counter observed at a span boundary.
func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls     int
	self      time.Duration
	selfAlloc uint64
}

// selfOf derives each span's self time and self allocation: its duration
// (or allocated bytes) minus its children's. The tracer closes spans in
// LIFO order on one goroutine, so children never overlap each other or
// outlast their parent.
func selfOf(spans []span) (self []time.Duration, alloc []uint64) {
	self = make([]time.Duration, len(spans))
	alloc = make([]uint64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		alloc[i] = s.allocEnd - s.allocStart
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
			alloc[s.parent] -= s.allocEnd - s.allocStart
		}
	}
	return self, alloc
}

// selfTimes aggregates self time and self allocation per span name.
func selfTimes(spans []span) map[string]*layerStat {
	self, alloc := selfOf(spans)
	out := map[string]*layerStat{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.calls++
		st.self += self[i]
		st.selfAlloc += alloc[i]
	}
	return out
}

// coverage is the share of op wall time spent inside layer calls: the
// duration of the spans named root, minus the self time of those spans
// and of the grouping spans that only hold layer calls.
func coverage(spans []span, root string, grouping ...string) float64 {
	self, _ := selfOf(spans)
	var total, uncovered time.Duration
	for i, s := range spans {
		if s.name == root {
			total += s.dur()
		}
		if s.name == root || slices.Contains(grouping, s.name) {
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(total)
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond clock), viewable in Perfetto or
// chrome://tracing.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]int{"op": s.op, "span": s.id, "parent": s.parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
