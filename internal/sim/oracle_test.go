package sim

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runOracle is the differential oracle: a per-request replay loop that
// exists only in test code. Each request issues at the later of its
// arrival and the completion of the request `window` back, and is
// serviced through Access — or through AccessDecoded with plane[i] when a
// predecode plane is given. The loop stops at the first order or
// contract violation with the tallies accumulated so far, which is
// exactly the error text and partial Result the production loops must
// reproduce.
func (e *Engine) runOracle(workload string, s trace.Stream, plane []trace.Decoded) (stats.Result, error) {
	window := e.Window
	if window == 0 {
		window = DefaultWindow
	}
	ring := e.resetRing(window)
	res := stats.Result{Workload: workload, Mechanism: e.m.Name()}
	var acc stats.Accum
	var r trace.Request
	var lastArrival clock.Time
	ringPos := 0
	for i := 0; s.Next(&r); i++ {
		if r.Time < lastArrival {
			acc.FlushTo(&res)
			return res, fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
				acc.Requests, r.Time, lastArrival)
		}
		lastArrival = r.Time
		at := r.Time
		if ring != nil {
			if gate := ring[ringPos]; gate > at {
				at = gate
			}
		}
		var done clock.Time
		if plane != nil {
			done = e.m.AccessDecoded(&r, &plane[i], at)
		} else {
			done = e.m.Access(&r, at)
		}
		if done <= at {
			acc.FlushTo(&res)
			return res, fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
				e.m.Name(), done, at)
		}
		if ring != nil {
			ring[ringPos] = done
			if ringPos++; ringPos == window {
				ringPos = 0
			}
		}
		acc.Note(r.Time, done)
	}
	acc.FlushTo(&res)
	e.finish(&res)
	return res, nil
}

// replay records a stream and runs it through the engine's production
// path, the way the facade replays a generated workload.
func replay(e *Engine, workload string, s trace.Stream) (stats.Result, error) {
	reqs := trace.Collect(s)
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	return e.Run(workload, snap.DecodedStream(&e.backend.Geom))
}

// mustReplay is replay for known-good streams.
func mustReplay(t testing.TB, e *Engine, workload string, s trace.Stream) stats.Result {
	t.Helper()
	res, err := replay(e, workload, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// touchState returns a copy of the mechanism's shared touch filter, or
// nil when it has none.
func touchState(m mech.Mechanism) *mech.TouchFilter {
	ts, ok := m.(mech.TouchSharer)
	if !ok {
		return nil
	}
	tf := *ts.SharedTouch()
	return &tf
}

// pathRun is one engine path's outcome: its label, the Result, the
// engine's path counters and the mechanism's final touch-filter state.
type pathRun struct {
	label         string
	res           stats.Result
	spans, blocks uint64
	touch         *mech.TouchFilter
	sharded       bool
}

// enginePaths is one differential cell: a recorded trace, the backend
// and mechanism to build fresh for every run, and the window.
type enginePaths struct {
	t      *testing.T
	name   string
	reqs   []trace.Request
	snap   *trace.Snapshot
	newSys func() *mech.Backend
	build  func(b *mech.Backend) mech.Mechanism
	window int
}

func (p enginePaths) run(label string, shards int, f func(e *Engine) (stats.Result, error)) pathRun {
	p.t.Helper()
	b := p.newSys()
	m := p.build(b)
	defer mech.Release(m)
	e := New(b, m)
	e.Window = p.window
	e.Shards = shards
	res, err := f(e)
	if err != nil {
		p.t.Fatalf("%s: %v", label, err)
	}
	_, sharded := m.(mech.PodSharded)
	return pathRun{label, res, e.ColumnSpans(), e.ParallelBlocks(), touchState(m), sharded}
}

// oracle runs the test-only per-request loop through Access, or through
// AccessDecoded over the snapshot's plane.
func (p enginePaths) oracle(decoded bool) pathRun {
	p.t.Helper()
	label := "oracle(Access)"
	if decoded {
		label = "oracle(AccessDecoded)"
	}
	return p.run(label, 0, func(e *Engine) (stats.Result, error) {
		var plane []trace.Decoded
		if decoded {
			plane = p.snap.Plane(&e.backend.Geom)
		}
		return e.runOracle(p.name, trace.NewSliceStream(p.reqs), plane)
	})
}

// production runs Engine.Run over the snapshot's decoded stream.
func (p enginePaths) production(snap *trace.Snapshot, label string, shards int) pathRun {
	p.t.Helper()
	return p.run(label, shards, func(e *Engine) (stats.Result, error) {
		return e.Run(p.name, snap.DecodedStream(&e.backend.Geom))
	})
}

// check replays the trace through the oracle (Access and AccessDecoded),
// the production column loop, and Run at each given shard count, and
// requires every run to match oracle(Access) field by field, touch-filter
// state included. Production runs must have serviced spans through the
// column entry points; forced shard counts must take the pod-parallel
// path exactly when the mechanism is pod-sharded. It returns the
// reference run.
func (p enginePaths) check(label string, shards ...int) pathRun {
	p.t.Helper()
	ref := p.oracle(false)
	if ref.res.Requests != uint64(len(p.reqs)) {
		p.t.Fatalf("%s: oracle replayed %d requests, want %d", label, ref.res.Requests, len(p.reqs))
	}
	if !ref.sharded && len(shards) > 1 {
		// One forced count suffices to show the run stays serial.
		shards = shards[:1]
	}
	runs := []pathRun{p.oracle(true), p.production(p.snap, "columns", 0)}
	for _, n := range shards {
		runs = append(runs, p.production(p.snap, fmt.Sprintf("shards=%d", n), n))
	}
	for i, r := range runs {
		diffResults(p.t, label+" "+r.label+" vs oracle(Access)", r.res, ref.res)
		if (r.touch == nil) != (ref.touch == nil) || (r.touch != nil && *r.touch != *ref.touch) {
			p.t.Errorf("%s %s: touch filter state diverged from oracle(Access)", label, r.label)
		}
		if i == 0 {
			continue
		}
		if r.spans == 0 {
			p.t.Errorf("%s %s: never serviced a span through the column entry points", label, r.label)
		}
		wantParallel := i > 1 && ref.sharded
		if got := r.blocks != 0; got != wantParallel {
			p.t.Errorf("%s %s: pod-parallel path taken = %v, want %v (%d blocks)",
				label, r.label, got, wantParallel, r.blocks)
		}
	}
	return ref
}
