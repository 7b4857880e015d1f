package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out
// once, at the end, as Chrome trace-event JSON. Spans come only from
// the benchmark's own calls into the program's public functions; a nil
// tracer records nothing, which is how untraced runs measure.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index+1 of the parent span, 0 for a root
	track      int // trace "thread": 0 benchmark, 1 load generator, 2 jobs
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (0 when tracing is off).
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, track: track, start: now, end: -1})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a job's
// due time to its completion).
func (t *tracer) add(name string, parent, track int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, track: track, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall seconds, traced or
// not.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// selfTimes returns each span's self time: its duration minus the
// union of its children's intervals clipped to it.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i+1]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := time.Duration(0)
		cur := [2]time.Duration{-1, -1}
		flush := func() {
			if cur[1] > cur[0] {
				covered += cur[1] - cur[0]
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.start), min(c[1], s.end)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				flush()
				cur = [2]time.Duration{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		flush()
		out[i] = s.end - s.start - covered
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write emits every closed span to path in Chrome trace-event format
// (load it in chrome://tracing or Perfetto); args carry the span id,
// its parent and its self time in microseconds.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < s.start {
			s.end = s.start
		}
		spans = append(spans, s)
	}
	t.mu.Unlock()
	self := selfTimes(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.track,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "self_us": us(self[i])},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
