package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of one of the repository's packages. Name is
// "<module>.<call>"; Arg distinguishes calls of one name (an experiment
// id, a mechanism). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`  // the workload run the span belongs to
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs share the traced code path at the
// cost of a nil check per call.
type tracer struct {
	mu    sync.Mutex
	id    string
	t0    time.Time
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, name, arg string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.id, Name: name, Arg: arg, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// export returns a copy of the spans, each closed.
func (t *tracer) export() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap one another
// (concurrent workers), so the covered part is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// moduleSummary attributes the traced run's host time to modules: the
// self time of every span, summed by the module prefix of its name.
func (t *tracer) moduleSummary() []string {
	spans := t.export()
	self := selfTimes(spans)
	byModule := map[string]int64{}
	calls := map[string]int{}
	for _, s := range spans {
		mod, _, _ := strings.Cut(s.Name, ".")
		byModule[mod] += self[s.ID]
		calls[mod]++
	}
	mods := make([]string, 0, len(byModule))
	for m := range byModule {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return byModule[mods[i]] > byModule[mods[j]] })
	lines := []string{fmt.Sprintf("self time by module over %d spans:", len(spans))}
	for _, m := range mods {
		lines = append(lines, fmt.Sprintf("  %-12s %10.3f s self  %6d spans", m, float64(byModule[m])/1e9, calls[m]))
	}
	return lines
}
