package mech

import (
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// ColumnPlan gathers a span of routed demand requests into per-channel
// columns and services each column through the channel batch kernel
// (dram.Channel.AccessBatch) in one call. A plan preserves per-channel
// request order, which is the whole correctness argument: channels share
// no state, so reordering requests *across* channels while keeping each
// channel's own sequence intact is bit-identical to the interleaved
// per-request order.
//
// The routing mechanism must Flush before any event that injects channel
// traffic outside the plan — interval boundaries, migration-queue drains,
// triggered swaps — so that traffic observes exactly the channel state it
// would have seen in the per-request order (spans of one request). A
// read that a demand waits for (a bookkeeping-cache miss, an LLP
// misprediction probe) goes through Issue, which flushes its one channel
// itself.
//
// A plan is single-goroutine state. The serial engine path shares one
// plan per backend (Backend.Plan); the pod-parallel path gives each
// worker its own (NewColumnPlan), which is safe because workers own
// disjoint pods and therefore route to disjoint channel sets.
type ColumnPlan struct {
	sys  *memsys.System
	cols [][]dram.BatchReq
	done []clock.Time
}

// colCap is each channel column's preallocated capacity: one flat backing
// array sliced per channel replaces the dozens of incremental append
// regrowths a fresh plan would otherwise pay while warming up. A column
// that outgrows its slot just reallocates (and keeps the larger capacity);
// spans are bounded by the engine window, so in practice almost none do.
const colCap = 64

// NewColumnPlan returns an empty plan over sys's channels.
func NewColumnPlan(sys *memsys.System) *ColumnPlan {
	nch := sys.NumChannels()
	flat := make([]dram.BatchReq, nch*colCap)
	cols := make([][]dram.BatchReq, nch)
	for ch := range cols {
		cols[ch] = flat[ch*colCap : ch*colCap : (ch+1)*colCap]
	}
	return &ColumnPlan{sys: sys, cols: cols}
}

// Begin starts a new span: routed completions are folded into done by
// request index (running max, so callers preload done[i] with the
// request's completion floor — zero, or a migration-lock release time).
func (p *ColumnPlan) Begin(done []clock.Time) { p.done = done }

// Route appends one demand access to its channel's pending column.
// idx is the request's index into the done column given to Begin.
func (p *ColumnPlan) Route(ch int, row uint64, write bool, at clock.Time, idx int32) {
	p.cols[ch] = append(p.cols[ch], dram.BatchReq{Row: row, At: at, Idx: idx, Write: write})
}

// smallColumn is the column length below which Flush services requests
// through the per-request channel path instead of the batch kernel: the
// kernel hoists channel state into locals and writes it back once, which
// amortizes over long columns but costs more than it saves under a
// handful of requests (frequent flush points — migration drains,
// triggered swaps — produce exactly such slivers). Both paths are
// bit-identical by construction, so the threshold is purely a speed knob.
const smallColumn = 8

// FlushChannel services channel ch's pending column, if any, and resets
// it. Most mid-span events hit channels with nothing pending (drain
// traffic clusters on a couple of channels while demand spreads over all
// of them), so the empty case returns at once.
func (p *ColumnPlan) FlushChannel(ch int) {
	col := p.cols[ch]
	if len(col) == 0 {
		return
	}
	done := p.done
	if len(col) < smallColumn {
		for i := range col {
			r := &col[i]
			if fin := p.sys.AccessChannel(ch, r.Row, r.Write, r.At); fin > done[r.Idx] {
				done[r.Idx] = fin
			}
		}
	} else {
		p.sys.AccessChannelBatch(ch, col, done)
	}
	p.cols[ch] = col[:0]
}

// Issue services one access on channel ch at once and returns its
// completion: the chained read a demand waits for before it is routed
// (a bookkeeping-cache miss, CAMEO's LLP misprediction probe). It first
// flushes ch's pending column, so the channel still sees its own
// requests in routed order — the per-request interleaving — while every
// other channel keeps accumulating.
func (p *ColumnPlan) Issue(ch int, row uint64, write bool, at clock.Time) clock.Time {
	p.FlushChannel(ch)
	return p.sys.AccessChannel(ch, row, write, at)
}

// Flush services every pending column and empties the plan. Channel
// order across columns is irrelevant (channels are independent); within
// a column, requests run in routed order.
func (p *ColumnPlan) Flush() {
	for ch := range p.cols {
		p.FlushChannel(ch)
	}
}

// FlushRange services only the pending columns of channels in [lo, hi),
// leaving every other channel's column accumulating. A mechanism whose
// mid-span event injects traffic onto a known channel subset (a pod's
// migration drain) flushes just that subset: the pending demand on those
// channels is serviced first — exactly the per-request interleaving —
// while unrelated channels keep building long columns instead of being
// shredded into slivers at every event. Bit-identical to a full Flush
// because channels share no state.
func (p *ColumnPlan) FlushRange(lo, hi int) {
	for ch := lo; ch < hi; ch++ {
		p.FlushChannel(ch)
	}
}

// ShardedColumn carries one pod-parallel worker's share of a wavefront
// segment: the block's span (times, decoded entries, cores, write bits),
// the precomputed issue times and touch-filter answers parallel to it,
// the segment bounds, the worker's pod-stride identity, and the
// worker-private plan to route through. The owned requests are the
// indices i in [Lo, Hi) with Span.Dec[i].Pod % Workers == Worker; each
// one's completion goes into Done[i].
type ShardedColumn struct {
	Plan    *ColumnPlan
	Span    *trace.SpanColumns
	At      []clock.Time
	Touched []bool
	Done    []clock.Time
	Lo, Hi  int
	Worker  int
	Workers int
}
