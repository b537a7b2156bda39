// Package sim drives a memory trace through a management mechanism and a
// two-level memory system and accumulates the paper's metrics.
//
// The engine plays the role of Ramulator's simple CPU front-end: requests
// issue at their trace timestamps, gated by a bounded outstanding-request
// window that models resource-induced stalls (a core cannot have unbounded
// misses in flight).
package sim

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultWindow is the default maximum number of outstanding requests
// (8 cores × 16 MSHRs).
const DefaultWindow = 128

// BatchSize caps the requests of one span the engine pulls from the
// stream (NextSpan) when the window is larger or unlimited: large enough
// to amortize the cursor call and the mechanism's per-span setup, small
// enough that the span's columns stay hot in L1.
const BatchSize = 256

// Engine runs traces against one mechanism.
type Engine struct {
	backend *mech.Backend
	m       mech.Mechanism
	// Window caps outstanding requests; 0 means DefaultWindow, negative
	// means unlimited.
	Window int
	// Shards opts a pod-sharded mechanism (mech.PodSharded) into the
	// pod-parallel path: >= 2 runs that many pod workers, capped at the
	// mechanism's pod count; 0, 1 or negative runs serially, as do
	// mechanisms that are not pod-sharded. Results are bit-identical for
	// every value; see parallel.go.
	Shards int

	// ring is the outstanding-request window, kept across runs so repeated
	// Run calls on one engine (benchmarks, sweeps) stay allocation-free.
	ring []clock.Time
	// Column buffers for runColumns (issue times and completions;
	// arrivals come straight from the stream's decoded time column),
	// allocated on first use and reused. spanBuf is the span view handed
	// to the mechanism — a single reused heap object, because a stack
	// span would escape through the AccessColumn interface call and cost
	// one allocation per span.
	atBuf   []clock.Time
	doneBuf []clock.Time
	spanBuf *trace.SpanColumns
	// pp holds the pod-parallel path's block buffers, reused across runs.
	pp *podParallel
	// parallelBlocks counts request blocks processed by the pod-parallel
	// path, for tests and diagnostics.
	parallelBlocks uint64
	// columnSpans counts request spans serviced through the mechanism's
	// column entry points, for tests and diagnostics.
	columnSpans uint64
}

// New returns an engine for the mechanism built over the backend.
func New(b *mech.Backend, m mech.Mechanism) *Engine {
	return &Engine{backend: b, m: m}
}

// Run replays the stream to completion and returns the run's metrics.
// The stream must serve decoded columns (Snapshot.DecodedStream) decoded
// under the backend's geometry, and be time-ordered (recorded workload
// traces are). Requests go to the mechanism span by span through
// AccessColumn (runColumns); with Shards >= 2 and a pod-sharded
// mechanism, the run takes the pod-parallel path (parallel.go) instead,
// which reads the same spans and is bit-identical.
func (e *Engine) Run(workload string, s trace.ColumnStream) (stats.Result, error) {
	res := stats.Result{Workload: workload, Mechanism: e.m.Name()}
	if !s.HasColumns() {
		return res, fmt.Errorf("sim: stream has no decoded columns (replay a Snapshot.DecodedStream)")
	}
	window := e.Window
	if window == 0 {
		window = DefaultWindow
	}
	ring := e.resetRing(window)

	var err error
	if ps, workers := e.shardPlan(); workers > 1 {
		err = e.runPodParallel(s, ps, workers, ring, window, &res)
	} else {
		err = e.runColumns(s, ring, window, &res)
	}
	if err != nil {
		return res, err
	}
	e.finish(&res)
	return res, nil
}

// resetRing returns the zeroed outstanding-request ring for a window, or
// nil when the window is unlimited.
func (e *Engine) resetRing(window int) []clock.Time {
	if window <= 0 {
		return nil
	}
	if cap(e.ring) < window {
		e.ring = make([]clock.Time, window)
		return e.ring
	}
	ring := e.ring[:window]
	for i := range ring {
		ring[i] = 0
	}
	return ring
}

// finish fills the run's memory-system and migration metrics.
func (e *Engine) finish(res *stats.Result) {
	fs, ss := e.backend.Sys.FastStats(), e.backend.Sys.SlowStats()
	res.FastAccesses = fs.Accesses()
	res.SlowAccesses = ss.Accesses()
	res.FastActivations = fs.RowClosed + fs.RowConflicts
	res.SlowActivations = ss.RowClosed + ss.RowConflicts
	res.FastRowHitRate = fs.RowHitRate()
	res.SlowRowHitRate = ss.RowHitRate()
	if total := fs.Accesses() + ss.Accesses(); total > 0 {
		res.RowHitRate = float64(fs.RowHits+ss.RowHits) / float64(total)
	}
	res.Mig = e.m.Stats()
}

// ColumnSpans reports how many request spans the engine has serviced
// through the mechanism's column entry points, across all runs.
func (e *Engine) ColumnSpans() uint64 { return e.columnSpans }

// runColumns is the engine's serial loop: it replays a ColumnStream
// through the mechanism's AccessColumn in wavefront spans of at most one
// window. The argument is the same as parallel.go's one-window blocks:
// every window gate of a span is a completion from at least `window`
// requests back — an earlier span — so a serial prepass fixes all of the
// span's issue times before any of it is simulated, and the mechanism is
// free to gather the span's demand accesses into per-channel columns.
// Spans come straight off the stream's decoded columns (trace.SpanColumns)
// with no Request materialization; the span's own time column doubles as
// the arrival column for stats. Order checking runs in the prepass
// (truncating the span at a violation but still simulating the requests
// before it), the contract check and ring writes run in a postpass over
// the dense completion column, and stall accounting goes through
// stats.Accum.NoteColumn. Error messages and partial results are those of
// a per-request loop that stops at the offending request (the tests'
// oracle).
func (e *Engine) runColumns(cs trace.ColumnStream, ring []clock.Time, window int, res *stats.Result) error {
	if e.atBuf == nil {
		e.atBuf = make([]clock.Time, BatchSize)
		e.doneBuf = make([]clock.Time, BatchSize)
		e.spanBuf = new(trace.SpanColumns)
	}
	at, doneCol, sub := e.atBuf, e.doneBuf, e.spanBuf
	spanMax := window
	if spanMax <= 0 || spanMax > BatchSize {
		spanMax = BatchSize
	}

	var lastArrival clock.Time
	var acc stats.Accum
	ringPos := 0
	for {
		sc := cs.NextSpan(spanMax)
		span := sc.Len()
		if span == 0 {
			break
		}
		times := sc.Times
		var orderErr error
		for k := 0; k < span; k++ {
			t := times[k]
			if t < lastArrival {
				orderErr = fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
					acc.Requests+uint64(k), t, lastArrival)
				span = k
				break
			}
			lastArrival = t
			if ring != nil {
				slot := ringPos + k
				if slot >= window {
					slot -= window
				}
				if gate := ring[slot]; gate > t {
					t = gate
				}
			}
			at[k] = t
		}
		if span > 0 {
			*sub = sc
			sub.Times = sc.Times[:span]
			sub.Dec = sc.Dec[:span]
			sub.Cores = sc.Cores[:span]
			done := doneCol[:span]
			e.m.AccessColumn(sub, at[:span], done)
			e.columnSpans++
			bad := -1
			for k := 0; k < span; k++ {
				if done[k] <= at[k] {
					bad = k
					break
				}
			}
			ok := span
			if bad >= 0 {
				ok = bad
			}
			if ring != nil {
				for k := 0; k < ok; k++ {
					slot := ringPos + k
					if slot >= window {
						slot -= window
					}
					ring[slot] = done[k]
				}
				if ringPos += ok; ringPos >= window {
					ringPos -= window
				}
			}
			acc.NoteColumn(times[:ok], done[:ok])
			if bad >= 0 {
				acc.FlushTo(res)
				return fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
					e.m.Name(), done[bad], at[bad])
			}
		}
		if orderErr != nil {
			acc.FlushTo(res)
			return orderErr
		}
	}
	acc.FlushTo(res)
	return nil
}
