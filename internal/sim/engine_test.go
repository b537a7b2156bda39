package sim

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newBackend() *mech.Backend {
	return mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
}

func TestRunStatic(t *testing.T) {
	b := newBackend()
	e := New(b, mech.NewStatic("TLM", b))
	w, _ := workload.Homogeneous("gcc")
	res := mustReplay(t, e, "gcc", w.MustStream(10000, 1))
	if res.Requests != 10000 {
		t.Fatalf("requests %d", res.Requests)
	}
	if res.AMMAT() <= 0 {
		t.Fatal("AMMAT not positive")
	}
	if res.FastAccesses+res.SlowAccesses != 10000 {
		t.Fatalf("service counts %d+%d != 10000", res.FastAccesses, res.SlowAccesses)
	}
	if res.Span <= 0 {
		t.Fatal("span not positive")
	}
}

// faultyMech is a fixed-latency mechanism that breaks the engine's
// contract once: its bad-th serviced request (counting from 0, in service
// order, -1 for never) completes at its issue time. It never reads a
// request's address or write bit, so it runs over fakeColumns.
type faultyMech struct{ n, bad int }

func (f *faultyMech) Name() string { return "faulty" }

func (f *faultyMech) service(at clock.Time) clock.Time {
	f.n++
	if f.n-1 == f.bad {
		return at
	}
	return at + 40*clock.Nanosecond
}

func (f *faultyMech) AccessColumn(_ *trace.SpanColumns, at, done []clock.Time) {
	for i := range at {
		done[i] = f.service(at[i])
	}
}

func (f *faultyMech) Stats() mech.MigStats { return mech.MigStats{} }

// fakeColumns is a ColumnStream over bare arrival times: spans carry the
// times and zero-valued plane entries and cores, nothing else.
type fakeColumns struct {
	times   []clock.Time
	pos     int
	columns bool
}

func (f *fakeColumns) HasColumns() bool { return f.columns }

func (f *fakeColumns) NextSpan(max int) trace.SpanColumns {
	n := len(f.times) - f.pos
	if max > 0 && n > max {
		n = max
	}
	lo := f.pos
	f.pos += n
	return trace.SpanColumns{Times: f.times[lo:f.pos], Dec: make([]trace.Decoded, n), Cores: make([]byte, n)}
}

// errorCase runs times through the production loop over fakeColumns and
// through the oracle over the same requests, each against a fresh
// faultyMech, and requires both to fail with the same error text and the
// same partial Result.
func errorCase(t *testing.T, label string, times []clock.Time, bad, window int) {
	t.Helper()
	newEngine := func() *Engine {
		e := New(newBackend(), &faultyMech{bad: bad})
		e.Window = window
		return e
	}
	refRes, refErr := newEngine().runOracle("bad", &fakeColumns{times: times, columns: true})
	res, err := newEngine().Run("bad", &fakeColumns{times: times, columns: true})
	if refErr == nil || err == nil {
		t.Fatalf("%s: violation accepted (oracle err %v, engine err %v)", label, refErr, err)
	}
	if err.Error() != refErr.Error() {
		t.Errorf("%s: error diverged:\noracle: %v\nengine: %v", label, refErr, err)
	}
	if res.Requests != refRes.Requests || res.TotalStall != refRes.TotalStall || res.Span != refRes.Span {
		t.Errorf("%s: partial result (requests %d, stall %v, span %v), oracle (requests %d, stall %v, span %v)",
			label, res.Requests, res.TotalStall, res.Span, refRes.Requests, refRes.TotalStall, refRes.Span)
	}
	if res.Requests == 0 {
		t.Errorf("%s: no request accounted before the violation", label)
	}
}

// arrivals returns n arrival times 3 ns apart — closer than faultyMech's
// latency, so narrow windows gate issue.
func arrivals(n int) []clock.Time {
	times := make([]clock.Time, n)
	for i := range times {
		times[i] = clock.Time(i+1) * 3 * clock.Nanosecond
	}
	return times
}

// TestRunRejectsUnorderedTrace: a timestamp that goes backwards fails the
// run with the oracle's error and partial result, wherever it falls
// relative to span boundaries and whatever the window.
func TestRunRejectsUnorderedTrace(t *testing.T) {
	for _, window := range []int{0, 1, 32, -1} {
		for _, at := range []int{1, 255, 256, 600} {
			times := arrivals(700)
			times[at] = times[at-1] - 1
			errorCase(t, fmt.Sprintf("window=%d/at=%d", window, at), times, -1, window)
		}
	}
}

// TestRunRejectsContractViolation: a mechanism that completes a request
// at (or before) its issue time fails the run with the oracle's error and
// partial result — the tally stops at the offending request even though
// the column entry point has serviced the rest of its span.
func TestRunRejectsContractViolation(t *testing.T) {
	for _, window := range []int{0, 1, 32, -1} {
		for _, bad := range []int{1, 255, 256, 600} {
			errorCase(t, fmt.Sprintf("window=%d/bad=%d", window, bad), arrivals(700), bad, window)
		}
	}
}

// TestRunRejectsStreamWithoutColumns: a stream that cannot serve decoded
// spans is an error, not a fallback to some other loop.
func TestRunRejectsStreamWithoutColumns(t *testing.T) {
	e := New(newBackend(), &faultyMech{bad: -1})
	res, err := e.Run("plain", &fakeColumns{times: arrivals(10)})
	if err == nil {
		t.Fatal("stream without columns accepted")
	}
	if res.Requests != 0 || e.ColumnSpans() != 0 {
		t.Fatalf("run serviced requests before rejecting the stream: %+v", res)
	}
}

func TestWindowGatesIssue(t *testing.T) {
	// With a window of 1, back-to-back requests serialize even when their
	// trace timestamps coincide.
	mkTrace := func() trace.Stream {
		reqs := make([]trace.Request, 64)
		for i := range reqs {
			reqs[i] = trace.Request{Addr: uint64(i) * 2048 * 8, Time: 0}
		}
		return trace.NewSliceStream(reqs)
	}
	b1 := newBackend()
	e1 := New(b1, mech.NewStatic("TLM", b1))
	e1.Window = 1
	narrow := mustReplay(t, e1, "w", mkTrace())

	b2 := newBackend()
	e2 := New(b2, mech.NewStatic("TLM", b2))
	e2.Window = -1 // unlimited
	wide := mustReplay(t, e2, "w", mkTrace())

	if narrow.TotalStall <= wide.TotalStall {
		t.Errorf("window=1 stall %v not greater than unlimited %v",
			narrow.TotalStall, wide.TotalStall)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() stats.Result {
		b := newBackend()
		e := New(b, core.MustNew(core.DefaultConfig(), b))
		w, _ := workload.Mix(5)
		return mustReplay(t, e, "mix5", w.MustStream(30000, 7))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

// The headline sanity check (Figure 8's shape): on a hot-set workload,
// HBM-only is fastest and MemPod beats no-migration; on a streaming
// workload, CAMEO's swap-per-access event trigger degrades it below the
// no-migration baseline.
func TestMechanismOrderingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	const n = 120000

	runWith := func(w workload.Workload, build func(b *mech.Backend) mech.Mechanism) stats.Result {
		b := newBackend()
		e := New(b, build(b))
		return mustReplay(t, e, w.Name, w.MustStream(n, 42))
	}

	hotset, _ := workload.Homogeneous("cactus")
	tlm := runWith(hotset, func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) })
	mp := runWith(hotset, func(b *mech.Backend) mech.Mechanism { return core.MustNew(core.DefaultConfig(), b) })

	hbmLayout := addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
	hb := mech.NewBackend(memsys.MustNew(hbmLayout, dram.HBM(), dram.DDR4_1600()))
	hbm := mustReplay(t, New(hb, mech.NewStatic("HBM-only", hb)), "cactus", hotset.MustStream(n, 42))

	stream, _ := workload.Homogeneous("bwaves")
	tlmS := runWith(stream, func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) })
	camS := runWith(stream, func(b *mech.Backend) mech.Mechanism { return cameo.MustNew(cameo.DefaultConfig(), b) })

	t.Logf("cactus AMMAT ns: HBM %.2f, MemPod %.2f, TLM %.2f; bwaves: TLM %.2f, CAMEO %.2f",
		hbm.AMMAT(), mp.AMMAT(), tlm.AMMAT(), tlmS.AMMAT(), camS.AMMAT())

	if !(hbm.AMMAT() < tlm.AMMAT()) {
		t.Errorf("HBM-only (%.2f) not faster than TLM (%.2f)", hbm.AMMAT(), tlm.AMMAT())
	}
	if !(mp.AMMAT() < tlm.AMMAT()) {
		t.Errorf("MemPod (%.2f) not faster than no-migration TLM (%.2f)", mp.AMMAT(), tlm.AMMAT())
	}
	if !(camS.AMMAT() > tlmS.AMMAT()) {
		t.Errorf("CAMEO on streaming (%.2f) not slower than TLM (%.2f)", camS.AMMAT(), tlmS.AMMAT())
	}
}

func TestBaselineMechanismsRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 40000
	w, _ := workload.Mix(1)

	builders := []func(b *mech.Backend) mech.Mechanism{
		func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) },
		func(b *mech.Backend) mech.Mechanism { return core.MustNew(core.DefaultConfig(), b) },
		func(b *mech.Backend) mech.Mechanism { return thm.MustNew(thm.DefaultConfig(), b) },
		func(b *mech.Backend) mech.Mechanism { return cameo.MustNew(cameo.DefaultConfig(), b) },
		func(b *mech.Backend) mech.Mechanism {
			cfg := hma.DefaultConfig()
			cfg.Interval = 500 * clock.Microsecond
			cfg.SortStall = 35 * clock.Microsecond
			return hma.MustNew(cfg, b)
		},
	}
	for _, build := range builders {
		b := newBackend()
		m := build(b)
		res, err := replay(New(b, m), "mix1", w.MustStream(n, 11))
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if res.Requests != n || res.AMMAT() <= 0 {
			t.Errorf("%s: bad result %+v", m.Name(), res)
		}
	}
}
