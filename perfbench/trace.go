package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side of
// the call. Spans of one request or job share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id and
// the function that closes it.
func (t *tracer) begin(parent int, req, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// do runs f inside a span.
func (t *tracer) do(parent int, req, name string, f func()) {
	_, end := t.begin(parent, req, name)
	defer end()
	f()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's own time: its duration minus the part of
// that interval its children cover. Overlapping children (concurrent
// calls) are merged first, so covered time is never counted twice.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		curS, curE := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write dumps the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
