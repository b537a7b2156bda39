// Pod-parallel replay, opt-in through Engine.Shards >= 2: the engine-side
// exploitation of the paper's core architectural property. MemPod's pods
// are independent between migration intervals — migration traffic never
// leaves a pod, each pod owns its channels, tables and locks, and only
// the epoch rollover walks all pods (§5). The serial loop interleaves
// every pod's requests on one goroutine; this path simulates the pods on
// separate workers between boundaries and joins at a deterministic
// barrier where the interval work runs in fixed pod order, producing
// bit-identical results.
//
// # Why blocks of exactly one window
//
// The only state coupling requests of *different* pods is the engine's
// outstanding-request window: request i cannot issue before request i-W
// completed (W = Window). Processing requests in blocks of exactly W
// dissolves that coupling into a wavefront: every gate of block b is a
// completion time of block b-1, so a serial prepass over the block can
// compute each request's exact issue time `at` before any of the block is
// simulated. With issue times fixed, interval-boundary crossings
// (at >= NextBoundary) are known exactly too, and requests between two
// crossings partition cleanly by home pod.
//
// # The barrier discipline per block
//
//  1. Prepass (serial): order check, issue times from the window ring,
//     and the shared per-core touch filter — the one per-access state
//     that crosses pods — consulted in global request order.
//  2. Split the block into segments at the boundary crossings; before
//     each segment, run AdvanceBoundary (migrations, MEA epoch rollover,
//     lock sweeps, refresh-independent queue scheduling) serially, in
//     fixed pod order — exactly the code the serial path runs inline.
//  3. Fan each segment out to the workers; worker w simulates the
//     requests of pods with Pod % workers == w, in request order, through
//     the mechanism's AccessShardedColumn and a worker-private column
//     plan, then writes completions into the ring at the request's own
//     slot. Pods share no mutable state (mech.PodSharded's contract),
//     pod-disjoint channel sets make the DRAM model safe (each
//     dram.Channel reconciles its own refresh arithmetic lazily, so idle
//     shards need no clock sync), and per-worker stats.Accum tallies
//     merge in fixed order afterwards.
//  4. Barrier (WaitGroup park, not spin — the forced-shards tests run on
//     a single P under -race), then the next segment or block.
//
// The 50 µs barrier costs more than the pod work between two barriers on
// small machines (about 0.5× the serial loop's speed at GOMAXPROCS=2),
// which is why the path is opt-in rather than a default.
//
// Error paths: a trace-order violation truncates the block at the
// offending request before dispatch, matching the serial path exactly. A
// mechanism contract violation (completion <= issue) aborts after the
// segment's barrier; requests of *other* pods past the offending one may
// already be simulated, so partial Results can differ from serial there —
// the run still fails with the same error.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
)

// unlimitedBlock is the block length when the window is unbounded: with no
// gates there is no wavefront constraint, only batching economics.
const unlimitedBlock = 4 * BatchSize

// segment is one dispatch unit: block request indices [lo, hi), all below
// the current interval boundary.
type segment struct{ lo, hi int }

// podWorker is one worker's channel and result slots. The padding keeps
// workers' hot accumulators on separate cache lines.
type podWorker struct {
	jobs   chan segment
	acc    stats.Accum
	err    error // first contract violation seen by this worker
	errIdx int   // block index of that violation
	// arr/done are the worker's dense postpass columns: the owned
	// requests' arrivals and completions, gathered so stall accounting
	// runs through stats.Accum.NoteColumn.
	arr  []clock.Time
	done []clock.Time
	_    [64]byte
}

// podParallel holds the pod-parallel path's reusable block buffers and
// per-block dispatch state. The dispatch fields (block, ringBase) are
// written by the coordinator before the segment send and read by workers
// after the receive; the channel pair orders them.
type podParallel struct {
	at    []clock.Time
	touch []bool
	// done is the block's completion column; workers write only their
	// owned indices (pods partition the block).
	done []clock.Time

	block    trace.SpanColumns
	ringBase int
	workers  []podWorker
	wg       sync.WaitGroup
}

// grow sizes the block buffers for blockLen-request blocks.
func (pp *podParallel) grow(blockLen int) {
	if cap(pp.at) < blockLen {
		pp.at = make([]clock.Time, blockLen)
		pp.touch = make([]bool, blockLen)
		pp.done = make([]clock.Time, blockLen)
	}
	pp.at = pp.at[:blockLen]
	pp.touch = pp.touch[:blockLen]
	pp.done = pp.done[:blockLen]
}

// shardPlan decides whether this run takes the pod-parallel path and with
// how many workers: only a pod-sharded mechanism with e.Shards >= 2 does,
// and the worker count is capped at the pod count.
func (e *Engine) shardPlan() (mech.PodSharded, int) {
	if e.Shards < 2 {
		return nil, 0
	}
	ps, ok := e.m.(mech.PodSharded)
	if !ok {
		return nil, 0
	}
	return ps, min(e.Shards, ps.Pods())
}

// ParallelBlocks reports how many request blocks the engine has processed
// on the pod-parallel path, across all runs. Zero after a run means the
// run took the serial loop.
func (e *Engine) ParallelBlocks() uint64 { return e.parallelBlocks }

// runPodParallel replays a column stream with one worker per pod shard,
// joining at interval boundaries. See the package comment above for the
// scheme; bit-identity with the serial loop is asserted per mechanism by
// TestPodParallelBitIdentical.
func (e *Engine) runPodParallel(cs trace.ColumnStream, ps mech.PodSharded, workers int, ring []clock.Time, window int, res *stats.Result) error {
	blockLen := window
	if blockLen <= 0 {
		blockLen = unlimitedBlock
	}
	if e.pp == nil {
		e.pp = &podParallel{}
	}
	pp := e.pp
	pp.grow(blockLen)
	tf := ps.SharedTouch()

	pp.workers = make([]podWorker, workers)
	for w := range pp.workers {
		pp.workers[w].jobs = make(chan segment, 1)
		go func(w int) {
			pw := &pp.workers[w]
			// Each worker routes through its own plan: workers own
			// disjoint pods, so their plans route to disjoint channel
			// sets and flush without synchronization.
			sc := mech.ShardedColumn{
				Plan:    mech.NewColumnPlan(e.backend.Sys),
				Span:    &pp.block,
				Worker:  w,
				Workers: workers,
			}
			for sg := range pw.jobs {
				at, doneCol := pp.at, pp.done
				sc.At, sc.Touched, sc.Done = at, pp.touch, doneCol
				sc.Lo, sc.Hi = sg.lo, sg.hi
				ps.AccessShardedColumn(&sc)
				// Postpass over the worker's own indices: contract check,
				// ring writes, and the dense arrival/completion columns
				// for NoteColumn. A contract violation stops the tally at
				// the offending request, like the serial loop (the rest of
				// the segment has been simulated by then; see the
				// error-path note above).
				dec, times := pp.block.Dec, pp.block.Times
				arr, done := pw.arr[:0], pw.done[:0]
				for i := sg.lo; i < sg.hi; i++ {
					if int(dec[i].Pod)%workers != w {
						continue
					}
					issue := at[i]
					d := doneCol[i]
					if d <= issue {
						if pw.err == nil {
							pw.err = fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
								ps.Name(), d, issue)
							pw.errIdx = i
						}
						break
					}
					if ring != nil {
						slot := pp.ringBase + i
						if slot >= window {
							slot -= window
						}
						ring[slot] = d
					}
					arr = append(arr, times[i])
					done = append(done, d)
				}
				pw.acc.NoteColumn(arr, done)
				pw.arr, pw.done = arr, done
				pp.wg.Done()
			}
		}(w)
	}
	defer func() {
		for w := range pp.workers {
			close(pp.workers[w].jobs)
		}
	}()

	// finish merges the workers' tallies, in fixed worker order, into res.
	finish := func() {
		var acc stats.Accum
		for w := range pp.workers {
			acc.Merge(pp.workers[w].acc)
		}
		acc.FlushTo(res)
	}

	var lastArrival clock.Time
	var processed uint64
	ringPos := 0
	for {
		block := cs.NextSpan(blockLen)
		n := block.Len()
		if n == 0 {
			break
		}

		// Serial prepass: order check, window gates, touch bits. A
		// misordered request truncates the block before it, exactly where
		// the serial loop would stop.
		var orderErr error
		at, times, dec, cores := pp.at, block.Times, block.Dec, block.Cores
		for i := 0; i < n; i++ {
			t := times[i]
			if t < lastArrival {
				orderErr = fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
					processed+uint64(i), t, lastArrival)
				n = i
				break
			}
			lastArrival = t
			if ring != nil {
				slot := ringPos + i
				if slot >= window {
					slot -= window
				}
				if gate := ring[slot]; gate > t {
					t = gate
				}
			}
			at[i] = t
			pp.touch[i] = tf.Touch(cores[i], dec[i].Page)
		}

		pp.block, pp.ringBase = block, ringPos
		for lo := 0; lo < n; {
			// The barrier's serial half: every boundary at or before the
			// segment head runs now, in fixed pod order — the same loop
			// the serial access path executes inline.
			if at[lo] >= ps.NextBoundary() {
				ps.AdvanceBoundary(at[lo])
			}
			nb := ps.NextBoundary()
			hi := lo + 1
			for hi < n && at[hi] < nb {
				hi++
			}
			pp.wg.Add(workers)
			for w := range pp.workers {
				pp.workers[w].jobs <- segment{lo, hi}
			}
			pp.wg.Wait()
			e.columnSpans++
			for w := range pp.workers {
				if pp.workers[w].err != nil {
					// Deterministic error selection: the earliest failing
					// request, however the workers interleaved.
					err, idx := pp.workers[w].err, pp.workers[w].errIdx
					for _, pw := range pp.workers[w+1:] {
						if pw.err != nil && pw.errIdx < idx {
							err, idx = pw.err, pw.errIdx
						}
					}
					finish()
					return err
				}
			}
			lo = hi
		}
		e.parallelBlocks++
		processed += uint64(n)
		if ring != nil {
			if ringPos += n; ringPos >= window {
				ringPos -= window
			}
		}
		if orderErr != nil {
			finish()
			return orderErr
		}
	}
	finish()
	return nil
}
