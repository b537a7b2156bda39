// Package core implements MemPod, the paper's clustered migration
// mechanism (§5).
//
// Memory controllers are clustered into pods; each pod independently
// tracks the activity of its pages with an MEA unit (internal/mea),
// maintains a remap table plus an inverted table over its fast frames, and
// at every interval migrates up to K hot pages into fast memory by
// swapping them with not-hot fast residents. Migration traffic stays
// inside the pod and contends with demand traffic on the pod's own
// channels; pods migrate in parallel.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mea"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds MemPod's design-space parameters (§6.3.1).
type Config struct {
	// Interval is the migration epoch length. The paper's design point is
	// 50 µs.
	Interval clock.Duration
	// Counters is K, the number of MEA entries per pod (paper: 64).
	Counters int
	// CounterBits is the saturating counter width (paper: 2).
	CounterBits int
	// CacheBytes is the total on-chip remap-table cache capacity, split
	// evenly over the pods. Zero disables cache modelling (bookkeeping is
	// free), matching the paper's cache-disabled experiments.
	CacheBytes int
	// CacheWays is the cache associativity (default 8).
	CacheWays int
	// UseFullCounters replaces the MEA unit with an exact Full Counters
	// tracker (one counter per touched page). This is an ablation, not a
	// buildable design point — it is what MEA's ~12800x storage saving
	// replaces; migrations are still capped at Counters per pod per epoch
	// (the top of the exact ranking).
	UseFullCounters bool
}

// DefaultConfig returns the design point the paper converges on:
// 50 µs intervals, 64 two-bit MEA counters per pod, no cache model.
func DefaultConfig() Config {
	return Config{Interval: 50 * clock.Microsecond, Counters: 64, CounterBits: 2}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("mempod: interval %d", c.Interval)
	case c.Counters <= 0:
		return fmt.Errorf("mempod: %d MEA counters", c.Counters)
	case c.CounterBits <= 0 || c.CounterBits > 64:
		return fmt.Errorf("mempod: counter width %d bits", c.CounterBits)
	case c.CacheBytes < 0:
		return fmt.Errorf("mempod: cache %d bytes", c.CacheBytes)
	}
	return nil
}

// remapEntryBytes is the modelled size of one remap-table entry: a 21-bit
// frame pointer with flags, stored as 4 bytes. Sixteen entries share one
// 64 B backing-store block.
const remapEntryBytes = 4

const entriesPerBlock = mech.BlockBytes / remapEntryBytes

// swapChunks is the number of paced chunks one page swap is issued in:
// 32 line-pairs split into 8 chunks of 4 keeps each copy clump to ~8
// channel accesses, so migration interleaves with demand instead of
// monopolizing a channel per swap.
const swapChunks = 8

const linesPerChunk = addr.LinesPerPage / swapChunks

// schedSwap is one queued unit of migration work: chunk `chunk` of the
// swap promoting `local` into fast memory, starting no earlier than
// `start`. Chunk 0 picks the victim and updates the tables.
type schedSwap struct {
	start clock.Time
	local uint32
	chunk uint8
}

// tracker abstracts the pod's activity-tracking unit: the MEA design or
// the Full Counters ablation.
type tracker interface {
	Observe(p uint64)
	Hot() []mea.Entry
	Reset()
}

// pod is the per-pod state: tracker, remap tables, victim pointer, cache,
// the paced migration queue of the current epoch and in-flight swap locks.
//
// The remap and inverted tables recycle through internal/tab pools, and
// the hot set is kept as an epoch-stamped set over *fast frames* rather
// than a map over hot page IDs: hotFast.Has(v) holds exactly when
// inverted[v] is one of the epoch's hot pages, which is the only question
// victim selection ever asks. The invariant is established when the epoch's
// hot list is read (every hot page already resident in fast memory stamps
// its frame) and maintained at the single place residency changes
// (executeSwap chunk 0 installs a hot page into the victim frame).
type pod struct {
	id       int
	tracker  tracker
	mea      *mea.MEA // tracker's concrete form, nil for Full Counters
	remap    *tab.U32 // home frame (local page ID) -> current frame
	inverted *tab.U32 // fast frame -> resident local page ID
	victim   uint32   // rotating victim-identification pointer
	cache    *mech.Cache

	queue       []schedSwap    // this epoch's migration chunks, paced
	qpos        int            // next queue entry to execute
	hotFast     *tab.EpochSet  // fast frames holding a hot page this epoch
	locks       mech.LockTable // local page -> in-flight swap completion
	cand        []uint32       // reused promotion-candidate buffer
	lastSwapEnd clock.Time     // serializes the pod's migration driver

	// In-flight swap state across its chunks.
	swapSkip     bool   // chunk 0 found nothing to do; skip the rest
	swapVictim   uint32 // fast frame being filled
	swapOld      uint32 // slow frame being vacated
	swapResident uint32 // local page being evicted

	// stats holds this pod's share of the migration counters. Keeping
	// them per pod (summed in Stats) is what lets the engine's
	// pod-parallel path serve different pods concurrently without a
	// shared counter write; the sums are order-independent, so the
	// merged totals are bit-identical to serial accumulation.
	stats mech.MigStats
}

// MemPod is the full mechanism. It implements mech.Mechanism.
type MemPod struct {
	cfg     Config
	backend *mech.Backend
	layout  addr.Layout
	geom    *addr.Geom
	pods    []pod
	touch   mech.TouchFilter
	next    clock.Time // next interval boundary
	// stats holds only the cross-pod counters (Intervals); everything
	// counted on the access path lives in the pods (pod.stats).
	stats mech.MigStats
}

// New builds a MemPod over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*MemPod, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("mempod: layout is not two-level")
	}
	if cfg.CacheWays <= 0 {
		cfg.CacheWays = 8
	}
	m := &MemPod{
		cfg:     cfg,
		backend: b,
		layout:  l,
		geom:    &b.Geom,
		pods:    make([]pod, l.NumPods),
		next:    cfg.Interval,
	}
	perPod := int(l.PagesPerPod())
	fast := int(l.FastPagesPerPod())
	for i := range m.pods {
		p := &m.pods[i]
		p.id = i
		if cfg.UseFullCounters {
			p.tracker = mea.NewFullCounters()
		} else {
			p.mea = mea.NewMEA(cfg.Counters, cfg.CounterBits)
			p.tracker = p.mea
		}
		p.remap = tab.NewU32(perPod)
		p.inverted = tab.NewU32(fast)
		p.hotFast = tab.NewEpochSet(fast)
		if cfg.CacheBytes > 0 {
			p.cache = mech.NewCache(cfg.CacheBytes/l.NumPods, cfg.CacheWays)
		}
	}
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, b *mech.Backend) *MemPod {
	m, err := New(cfg, b)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements mech.Mechanism.
func (m *MemPod) Name() string {
	if m.cfg.UseFullCounters {
		return "MemPod-FC"
	}
	return "MemPod"
}

// Stats implements mech.Mechanism: the cross-pod counters plus every
// pod's share, merged in pod order (the sums commute, so the result is
// identical however the per-access counters were produced).
func (m *MemPod) Stats() mech.MigStats {
	s := m.stats
	for i := range m.pods {
		s.Merge(m.pods[i].stats)
	}
	return s
}

// Config returns the mechanism's configuration.
func (m *MemPod) Config() Config { return m.cfg }

// Release implements mech.Releaser: the remap, inverted and hot-set
// tables return to their pools for the next simulation cell. The
// mechanism must not be used afterwards.
func (m *MemPod) Release() {
	for i := range m.pods {
		p := &m.pods[i]
		p.remap.Release()
		p.inverted.Release()
		p.hotFast.Release()
		p.remap, p.inverted, p.hotFast = nil, nil, nil
	}
}

// Access implements mech.Mechanism: observe the page in the pod's MEA
// unit, consult the remap table (through the cache model if enabled),
// stall behind any in-flight swap of the page, and forward the line to its
// current frame.
func (m *MemPod) Access(r *trace.Request, at clock.Time) clock.Time {
	page := addr.PageOf(addr.Addr(r.Addr))
	podID, home := m.geom.HomeFrame(page)
	li := int(uint64(addr.LineOf(addr.Addr(r.Addr))) % addr.LinesPerPage)
	return m.access(r, uint64(page), podID, uint32(home), li, at, nil)
}

// AccessDecoded implements mech.Mechanism: the home decomposition
// comes from the trace's predecode plane instead of being re-derived, and
// un-migrated pages (the identity remap, i.e. most of the trace) are
// serviced at the plane's precomputed home channel/row.
func (m *MemPod) AccessDecoded(r *trace.Request, d *trace.Decoded, at clock.Time) clock.Time {
	return m.access(r, d.Page, int(d.Pod), d.Frame, int(d.Line), at, d)
}

func (m *MemPod) access(r *trace.Request, page uint64, podID int, local uint32, li int, at clock.Time, d *trace.Decoded) clock.Time {
	for at >= m.next {
		m.runInterval(m.next)
		m.next += m.cfg.Interval
	}
	return m.accessPod(&m.pods[podID], r, podID, local, li, at, d, m.touch.Touch(r.Core, page))
}

// Pods implements mech.PodSharded.
func (m *MemPod) Pods() int { return len(m.pods) }

// NextBoundary implements mech.PodSharded.
func (m *MemPod) NextBoundary() clock.Time { return m.next }

// AdvanceBoundary implements mech.PodSharded: the same loop the serial
// access path runs inline, hoisted to the engine's barrier.
func (m *MemPod) AdvanceBoundary(t clock.Time) {
	for t >= m.next {
		m.runInterval(m.next)
		m.next += m.cfg.Interval
	}
}

// SharedTouch implements mech.TouchSharer.
func (m *MemPod) SharedTouch() *mech.TouchFilter { return &m.touch }

// accessPod is the pod-local tail of the access path, shared by the
// serial entry points and the pod-parallel cache fallback.
func (m *MemPod) accessPod(p *pod, r *trace.Request, podID int, local uint32, li int, at clock.Time, d *trace.Decoded, touched bool) clock.Time {
	// Execute any queued swaps whose paced start time has arrived, so
	// channel traffic stays in time order. The guard is inlined here:
	// most accesses find nothing due, and the call is not free.
	if p.qpos < len(p.queue) && p.queue[p.qpos].start <= at {
		m.drainPod(p, at)
	}

	if touched {
		// Direct dispatch for the common concrete tracker; the interface
		// call is only paid by the Full Counters ablation.
		if p.mea != nil {
			p.mea.Observe(uint64(local))
		} else {
			p.tracker.Observe(uint64(local))
		}
	}

	start := at
	if p.cache != nil {
		block := uint64(local) / entriesPerBlock
		if p.cache.Access(block) {
			p.stats.CacheHits++
		} else {
			p.stats.CacheMisses++
			start = m.backend.BookkeepingRead(podID, block, start)
		}
	}
	var lockEnd clock.Time
	if end := p.locks.GetActive(uint64(local), start); end != 0 {
		// The page's swap is in flight: the request cannot complete
		// before the copy lands. The DRAM access itself still issues
		// now (channel traffic must stay in time order); the lock
		// wait is added to the completion.
		lockEnd = end
		p.stats.LockStalls++
	}

	f := addr.Frame(p.remap.A[local])
	if d != nil && uint32(f) == local {
		// Identity remap: the page still lives in its home frame, whose
		// channel/row the predecode plane already resolved.
		return clock.Max(m.backend.LineAt(d.Chan, d.Row, r.Write, start), lockEnd)
	}
	return clock.Max(m.backend.Line(podID, f, li, r.Write, start), lockEnd)
}

// AccessColumn implements mech.Mechanism: the serial access path
// with demand accesses gathered into per-channel columns. Flush points
// mirror every place the per-request path injects immediate channel
// traffic — interval boundaries (full flush: every pod drains) and due
// swap drains (pod-scoped: a drain only touches its pod's channels, so
// only those columns flush and the other pods' keep accumulating) — so
// the columns' channels see exactly the per-request state. With the
// bookkeeping cache enabled a miss chains a read into the demand's
// issue time, which a column cannot express; that configuration keeps
// the per-request path.
func (m *MemPod) AccessColumn(sc *trace.SpanColumns, at, done []clock.Time) {
	dec := sc.Dec
	if m.cfg.CacheBytes > 0 {
		for i := range dec {
			r := sc.Request(i)
			done[i] = m.AccessDecoded(&r, &dec[i], at[i])
		}
		return
	}
	plan := m.backend.Plan()
	plan.Begin(done)
	for i := range dec {
		d := &dec[i]
		t := at[i]
		if t >= m.next {
			plan.Flush()
			for t >= m.next {
				m.runInterval(m.next)
				m.next += m.cfg.Interval
			}
		}
		p := &m.pods[d.Pod]
		if p.qpos < len(p.queue) && p.queue[p.qpos].start <= t {
			m.backend.FlushPodChannels(plan, int(d.Pod))
			m.drainPod(p, t)
		}
		if m.touch.Touch(sc.Cores[i], d.Page) {
			if p.mea != nil {
				p.mea.Observe(uint64(d.Frame))
			} else {
				p.tracker.Observe(uint64(d.Frame))
			}
		}
		var lockEnd clock.Time
		if end := p.locks.GetActive(uint64(d.Frame), t); end != 0 {
			lockEnd = end
			p.stats.LockStalls++
		}
		done[i] = lockEnd
		if f := p.remap.A[d.Frame]; f == d.Frame {
			plan.Route(int(d.Chan), uint64(d.Row), sc.Write(i), t, int32(i))
		} else {
			ch, row := m.backend.LineLoc(int(d.Pod), addr.Frame(f))
			plan.Route(ch, row, sc.Write(i), t, int32(i))
		}
	}
	plan.Flush()
}

// AccessShardedColumn implements mech.PodSharded: the access path with
// the two cross-pod pieces — interval advancement and the touch filter —
// already handled by the caller, over a worker's share of a wavefront
// segment routed through the worker-private plan. Everything it reads or
// writes belongs to the owned requests' pods (tables, locks, cache,
// queue, per-pod stats) or is immutable (geometry, config), and the
// backend routes the pods' demand, bookkeeping and swap traffic onto the
// pods' own channels, so concurrent calls for disjoint pod sets share
// nothing mutable. The only flush points left are the worker's own pods'
// swap drains, each pod-scoped like the serial path's (a drain touches
// only the draining pod's channels).
func (m *MemPod) AccessShardedColumn(sc *mech.ShardedColumn) {
	span := sc.Span
	dec := span.Dec
	if m.cfg.CacheBytes > 0 {
		for i := sc.Lo; i < sc.Hi; i++ {
			d := &dec[i]
			if int(d.Pod)%sc.Workers != sc.Worker {
				continue
			}
			r := span.Request(i)
			sc.Done[i] = m.accessPod(&m.pods[d.Pod], &r, int(d.Pod), d.Frame, int(d.Line), sc.At[i], d, sc.Touched[i])
		}
		return
	}
	plan := sc.Plan
	plan.Begin(sc.Done)
	for i := sc.Lo; i < sc.Hi; i++ {
		d := &dec[i]
		if int(d.Pod)%sc.Workers != sc.Worker {
			continue
		}
		t := sc.At[i]
		p := &m.pods[d.Pod]
		if p.qpos < len(p.queue) && p.queue[p.qpos].start <= t {
			m.backend.FlushPodChannels(plan, int(d.Pod))
			m.drainPod(p, t)
		}
		if sc.Touched[i] {
			if p.mea != nil {
				p.mea.Observe(uint64(d.Frame))
			} else {
				p.tracker.Observe(uint64(d.Frame))
			}
		}
		var lockEnd clock.Time
		if end := p.locks.GetActive(uint64(d.Frame), t); end != 0 {
			lockEnd = end
			p.stats.LockStalls++
		}
		sc.Done[i] = lockEnd
		if f := p.remap.A[d.Frame]; f == d.Frame {
			plan.Route(int(d.Chan), uint64(d.Row), span.Write(i), t, int32(i))
		} else {
			ch, row := m.backend.LineLoc(int(d.Pod), addr.Frame(f))
			plan.Route(ch, row, span.Write(i), t, int32(i))
		}
	}
	plan.Flush()
}

// drainPod executes the pod's due swaps: every queue entry whose paced
// start is at or before `now`. Swaps serialize through the pod's single
// migration driver (lastSwapEnd).
func (m *MemPod) drainPod(p *pod, now clock.Time) {
	for p.qpos < len(p.queue) && p.queue[p.qpos].start <= now {
		m.executeSwap(p, p.queue[p.qpos])
		p.qpos++
	}
}

// executeSwap runs one chunk of a queued swap. Chunk 0 chooses the victim
// through the rotating finder, updates the remap and inverted tables, and
// locks both pages; each chunk injects its share of the copy traffic and
// advances the locks to its completion.
func (m *MemPod) executeSwap(p *pod, sw schedSwap) {
	if sw.chunk == 0 {
		p.swapSkip = true
		cur := p.remap.A[sw.local]
		if m.geom.IsFastFrame(addr.Frame(cur)) {
			return // already resident in fast memory
		}
		v, ok := p.findVictim()
		if !ok {
			return
		}
		p.swapSkip = false
		p.swapVictim = uint32(v)
		p.swapOld = cur
		p.swapResident = p.inverted.A[uint32(v)]

		if p.cache != nil {
			// Remap-table updates go through the cache model too.
			for _, lp := range [2]uint32{sw.local, p.swapResident} {
				block := uint64(lp) / entriesPerBlock
				if p.cache.Access(block) {
					p.stats.CacheHits++
				} else {
					p.stats.CacheMisses++
					t := m.backend.BookkeepingRead(p.id, block, sw.start)
					if t > p.lastSwapEnd {
						p.lastSwapEnd = t
					}
				}
			}
		}
		p.remap.Set(sw.local, p.swapVictim)
		p.remap.Set(p.swapResident, cur)
		p.inverted.Set(p.swapVictim, sw.local)
		// The victim frame now holds a page from the epoch's hot set.
		p.hotFast.Add(p.swapVictim)
		p.stats.PageMigrations++
	}
	if p.swapSkip {
		return
	}

	// Chunks issue at their paced schedule; the channels themselves
	// serialize the actual transfers. Issuing at chained completion times
	// would put future-dated requests into the (time-ordered) channel
	// model and corrupt it under congestion.
	lo := int(sw.chunk) * linesPerChunk
	end := m.backend.SwapPagesChunk(p.id, addr.Frame(p.swapOld), addr.Frame(p.swapVictim),
		lo, lo+linesPerChunk, sw.start)
	p.stats.LineMigrations += 2 * linesPerChunk
	p.stats.BytesMoved += 2 * linesPerChunk * addr.LineBytes
	if end > p.lastSwapEnd {
		p.lastSwapEnd = end
	}
	p.locks.Raise(uint64(sw.local), end)
	p.locks.Raise(uint64(p.swapResident), end)
}

// runInterval performs the boundary work of one epoch: each pod flushes
// any swaps still queued from the previous epoch, reads its MEA hot set,
// schedules up to K promotions paced evenly across the new epoch, and
// resets its tracker. Pods migrate in parallel; swaps within a pod are
// serial through the pod's migration driver.
func (m *MemPod) runInterval(boundary clock.Time) {
	m.stats.Intervals++
	for i := range m.pods {
		p := &m.pods[i]
		// Retire the previous epoch's queue: an in-flight swap (chunk 0
		// already executed) must finish copying, but swaps that never
		// started are stale decisions and are dropped — the migration
		// driver's bandwidth is bounded, and the new epoch's hot set
		// supersedes the old one. (This flush runs against the previous
		// epoch's hotFast set, which is still current here.)
		flushing := p.qpos > 0 && p.queue[p.qpos-1].chunk != swapChunks-1
		for p.qpos < len(p.queue) {
			sw := p.queue[p.qpos]
			if sw.chunk == 0 {
				flushing = false
			}
			if !flushing && sw.chunk == 0 {
				// Peek: never-started swap -> drop all its chunks.
				p.qpos += swapChunks
				p.stats.DroppedMigrations++
				continue
			}
			if sw.start < boundary {
				sw.start = boundary
			}
			m.executeSwap(p, sw)
			p.qpos++
		}
		p.locks.Sweep(boundary)

		hot := p.tracker.Hot()
		if len(hot) > m.cfg.Counters {
			// The Full Counters ablation ranks every page; migration
			// bandwidth stays capped at K per pod per epoch.
			hot = hot[:m.cfg.Counters]
		}
		// Split the hot list by residency in one pass: pages already in
		// fast memory stamp their frame hot (re-establishing the hotFast
		// invariant for the new epoch), the rest are promotion candidates.
		p.hotFast.BeginEpoch()
		cand := p.cand[:0]
		for _, e := range hot {
			local := uint32(e.Page)
			if f := p.remap.A[local]; m.geom.IsFastFrame(addr.Frame(f)) {
				p.hotFast.Add(f)
				continue // already resident in fast memory
			}
			cand = append(cand, local)
		}
		// The pod's copy engine has finite bandwidth: one page swap keeps
		// a DDR channel busy for roughly minSwapTime, and the engine may
		// still be working off the previous epoch. Schedule only as many
		// swaps as fit into the epoch's remaining copy time, paced so the
		// engine is never asked to exceed its rate; the rest of the hot
		// set is dropped (it will be re-identified if still hot). Without
		// this feedback, aggressive configurations (many counters x short
		// epochs, Figure 6's corners) would demand physically impossible
		// copy rates.
		// minSwapTime budgets one swap's channel occupancy (~64 DDR line
		// transfers) plus equal headroom for demand traffic: the copy
		// engine never claims more than about half of the pod's slow
		// channel.
		const minSwapTime = 800 * clock.Nanosecond
		slotBase := boundary
		if p.lastSwapEnd > slotBase {
			slotBase = p.lastSwapEnd
		}
		avail := boundary + m.cfg.Interval - slotBase
		if avail < 0 {
			avail = 0
		}
		maxSwaps := int(avail / minSwapTime)
		if len(cand) > maxSwaps {
			p.stats.DroppedMigrations += uint64(len(cand) - maxSwaps)
			cand = cand[:maxSwaps]
		}
		p.cand = cand

		p.queue = p.queue[:0]
		p.qpos = 0
		if len(cand) > 0 {
			spacing := avail / clock.Duration(len(cand)+1)
			if spacing < minSwapTime {
				spacing = minSwapTime
			}
			chunkSpacing := spacing / swapChunks
			for idx, local := range cand {
				slot := slotBase + clock.Duration(idx)*spacing
				for ch := 0; ch < swapChunks; ch++ {
					p.queue = append(p.queue, schedSwap{
						start: slot + clock.Duration(ch)*chunkSpacing,
						local: local,
						chunk: uint8(ch),
					})
				}
			}
		}
		if p.lastSwapEnd < boundary {
			p.lastSwapEnd = boundary
		}
		p.tracker.Reset()
	}
}

// findVictim returns the next fast frame whose resident page is not in the
// epoch's hot set, advancing the rotating pointer; ok is false if every
// fast frame currently holds a hot page (possible only when K approaches
// the fast capacity of a pod).
func (p *pod) findVictim() (addr.Frame, bool) {
	n := uint32(len(p.inverted.A))
	for scanned := uint32(0); scanned < n; scanned++ {
		v := p.victim
		if p.victim++; p.victim == n {
			p.victim = 0
		}
		if !p.hotFast.Has(v) {
			return addr.Frame(v), true
		}
	}
	return 0, false
}

// FrameOf reports the current frame of a flat-space page, for tests and
// invariant checks.
func (m *MemPod) FrameOf(page addr.Page) (podID int, f addr.Frame) {
	podID, home := m.layout.HomeFrame(page)
	return podID, addr.Frame(m.pods[podID].remap.A[uint32(home)])
}

// CheckInvariants verifies that each pod's remap table is a permutation
// and that the inverted table matches it. It is O(memory) and intended for
// tests.
func (m *MemPod) CheckInvariants() error {
	for i := range m.pods {
		p := &m.pods[i]
		seen := make([]bool, len(p.remap.A))
		for local, f := range p.remap.A {
			if int(f) >= len(p.remap.A) {
				return fmt.Errorf("pod %d: local %d maps to out-of-range frame %d", i, local, f)
			}
			if seen[f] {
				return fmt.Errorf("pod %d: frame %d mapped twice", i, f)
			}
			seen[f] = true
		}
		for f, resident := range p.inverted.A {
			if p.remap.A[resident] != uint32(f) {
				return fmt.Errorf("pod %d: inverted[%d]=%d but remap[%d]=%d",
					i, f, resident, resident, p.remap.A[resident])
			}
		}
	}
	return nil
}

var (
	_ mech.Mechanism  = (*MemPod)(nil)
	_ mech.Releaser   = (*MemPod)(nil)
	_ mech.PodSharded = (*MemPod)(nil)
)
