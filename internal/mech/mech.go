// Package mech defines the common machinery of hybrid-memory management
// mechanisms: the Mechanism interface the simulation engine drives, the
// Backend that issues physical requests into the memory system, and the
// set-associative cache model used for bookkeeping state (§6.3.3).
//
// The concrete mechanisms live in their own packages: internal/core
// (MemPod), internal/hma, internal/thm and internal/cameo; this package
// also provides the static (no-migration and single-level) references.
package mech

import (
	"repro/internal/clock"
	"repro/internal/trace"
)

// Mechanism is a memory-management scheme under evaluation. The engine
// services requests in non-decreasing time order; the mechanism routes
// each one (after any translation, bookkeeping traffic, interval
// processing or migration stalling it models) and returns the completion
// time. The three access methods are one service in three shapes, and
// must be bit-identical to one another: the same completions and the same
// mechanism and channel state afterwards, whichever sequence of them
// serviced a trace.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Access services one demand request arriving at time `at` and
	// returns its completion time (> at).
	Access(r *trace.Request, at clock.Time) clock.Time
	// AccessDecoded is Access with the request's address decomposition
	// already computed (d describes r.Addr under the backend's layout,
	// as a trace predecode plane entry).
	AccessDecoded(r *trace.Request, d *trace.Decoded, at clock.Time) clock.Time
	// AccessColumn services span request i (decoded as sc.Dec[i]) issued
	// at at[i], writing each completion into done[i] — the engine's only
	// production entry point. Mechanisms gather the span's demand
	// accesses into per-channel columns (ColumnPlan). at and done are
	// parallel to the span and caller-owned; every done[i] is
	// (re)written.
	AccessColumn(sc *trace.SpanColumns, at, done []clock.Time)
	// Stats returns the mechanism's migration counters.
	Stats() MigStats
}

// TouchSharer is implemented by mechanisms whose activity tracking runs
// behind a shared per-core TouchFilter. The pod-parallel engine's serial
// prepass consults the filter through it (the filter is the one piece of
// per-access state that crosses pods), and the differential tests use it
// to assert filter-state equivalence across engine paths.
type TouchSharer interface {
	// SharedTouch returns the mechanism's touch filter. The engine owns
	// all ordering: the filter must only be consulted in global request
	// order, from one goroutine at a time.
	SharedTouch() *TouchFilter
}

// PodSharded is implemented by mechanisms whose per-access mutable state
// is partitioned by home pod, with cross-pod work confined to interval
// boundaries — MemPod's defining property (§5: pods migrate independently;
// only the epoch rollover walks all pods). The engine's opt-in
// pod-parallel path (sim.Engine.Shards >= 2) drives such mechanisms with
// one worker per pod shard between boundaries, joining at a deterministic
// barrier to run AdvanceBoundary, and is bit-identical to the serial path
// by construction: AccessShardedColumn calls for different pods must not
// share any mutable state.
//
// Mechanisms that swap across arbitrary channel pairs mid-interval (HMA,
// THM, CAMEO — everything routed through the global switch) cannot
// implement this; the engine runs them serially whatever Shards says,
// mirroring the paper's scalability argument for clustering.
type PodSharded interface {
	Mechanism
	TouchSharer
	// Pods returns the number of independent shards (home pods).
	Pods() int
	// NextBoundary returns the next interval boundary: every request of
	// an AccessShardedColumn call must carry an issue time strictly
	// below it.
	NextBoundary() clock.Time
	// AdvanceBoundary runs every interval boundary at or before t, in
	// fixed pod order, advancing NextBoundary past t. The caller must
	// guarantee no AccessShardedColumn call is in flight.
	AdvanceBoundary(t clock.Time)
	// AccessShardedColumn services one worker's share of a wavefront
	// segment (see ShardedColumn) with the cross-pod work hoisted out:
	// the caller has already advanced boundaries (so no interval check)
	// and consulted the shared touch filter (sc.Touched carries its
	// answers). It must be bit-identical to the AccessDecoded calls for
	// the owned requests in order, and may only read and write state of
	// the worker's pods — the worker-private plan keeps the routed
	// channel traffic inside them.
	AccessShardedColumn(sc *ShardedColumn)
}

// Releaser is optionally implemented by mechanisms whose bookkeeping
// tables recycle through internal/tab pools. Callers that construct many
// mechanisms in sequence (the experiment matrix) call Release after the
// last use of a mechanism so the next cell reuses its tables instead of
// allocating and initializing tens of megabytes; callers that don't are
// merely slower. A released mechanism must not be used again.
type Releaser interface {
	Release()
}

// Release releases m's pooled tables if it has any.
func Release(m Mechanism) {
	if r, ok := m.(Releaser); ok {
		r.Release()
	}
}

// MigStats counts migration and bookkeeping activity.
type MigStats struct {
	Intervals         uint64 // interval boundaries processed
	PageMigrations    uint64 // pages moved (each is a swap participant)
	LineMigrations    uint64 // 64 B lines moved
	BytesMoved        uint64 // total migration traffic
	CacheHits         uint64 // bookkeeping cache hits
	CacheMisses       uint64 // bookkeeping cache misses (each injects a read)
	LockStalls        uint64 // demand requests delayed by an in-flight swap
	DroppedMigrations uint64 // scheduled swaps superseded before starting
	// GlobalMoveLines counts moved lines that crossed the global switch:
	// zero for MemPod (intra-pod datapath), equal to LineMigrations for
	// the mechanisms that swap across arbitrary channel pairs (§5.3).
	GlobalMoveLines uint64
}

// Merge adds o's counters into s. Every field is a sum, so merging
// per-pod shards in any fixed order reproduces the serially accumulated
// totals exactly — the property the pod-parallel engine's per-pod stats
// rely on.
func (m *MigStats) Merge(o MigStats) {
	m.Intervals += o.Intervals
	m.PageMigrations += o.PageMigrations
	m.LineMigrations += o.LineMigrations
	m.BytesMoved += o.BytesMoved
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.LockStalls += o.LockStalls
	m.DroppedMigrations += o.DroppedMigrations
	m.GlobalMoveLines += o.GlobalMoveLines
}

// BytesMovedPerPod returns average migration traffic per pod.
func (m MigStats) BytesMovedPerPod(pods int) uint64 {
	if pods <= 0 {
		return m.BytesMoved
	}
	return m.BytesMoved / uint64(pods)
}
