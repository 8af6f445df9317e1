package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call into a layer's
// public API, a probe, or a grouping of such calls. Parent is the ID of the
// span that was open when this one began (0 for a root); Workload and Op
// tie a span to the benchmark op it served. Times are nanoseconds since
// the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Op       int    `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"`
}

// spanLog keeps spans in memory until the traced run ends. A nil *spanLog
// is the tracing-off state: begin returns a no-op end function, so the
// untraced workloads share the traced run's code without paying for it.
//
// Spans nest by call order (begin pushes, the returned func pops), which
// is sound because the harness is a closed loop with one caller; the mutex
// only covers the hand-off to the one pool worker a traced job runs on.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	// ctx labels spans begun while it is set.
	workload string
	op       int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// label sets the workload/op recorded on subsequently begun spans.
func (l *spanLog) label(workload string, op int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.workload, l.op = workload, op
	l.mu.Unlock()
}

// begin opens a span under the innermost open one and returns the function
// that closes it; the closer returns the span's duration.
func (l *spanLog) begin(name string) func() time.Duration {
	if l == nil {
		start := time.Now()
		return func() time.Duration { return time.Since(start) }
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Workload: l.workload, Op: l.op,
		Start: int64(time.Since(l.t0)),
	})
	l.open = append(l.open, idx)
	return func() time.Duration {
		l.mu.Lock()
		defer l.mu.Unlock()
		s := &l.spans[idx]
		s.End = int64(time.Since(l.t0))
		for i := len(l.open) - 1; i >= 0; i-- {
			if l.open[i] == idx {
				l.open = append(l.open[:i], l.open[i+1:]...)
				break
			}
		}
		return time.Duration(s.End - s.Start)
	}
}

// selfTimes fills every span's Self: its duration minus the part of that
// interval its direct children cover. Children may overlap each other or
// (through clock jitter) poke past the parent; covered time is the union
// of their intervals clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			cs, ce := spans[k].Start, spans[k].End
			if cs < edge {
				cs = edge
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// finished returns the closed spans with self times filled in.
func (l *spanLog) finished() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]span(nil), l.spans...)
	selfTimes(out)
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Spans  []span `json:"spans"`
}

func writeTrace(path string, seed int64, spans []span) error {
	b, err := json.MarshalIndent(traceFile{Schema: "innercircle-bench-trace/1", Seed: seed, Spans: spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
