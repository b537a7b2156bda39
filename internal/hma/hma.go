// Package hma models the Heterogeneous Memory Architectures baseline
// (Meswani et al., HPCA 2015) as the MemPod paper evaluates it (§4, §6).
//
// HMA keeps one full activity counter per page. At coarse intervals the OS
// sorts the counters, stalls execution for the duration of the sort (the
// paper generously models 7 ms instead of the measured ~1.2 s), and
// migrates hot pages into fast memory with full any-to-any flexibility.
// Because the OS rewrites page tables, no remap table is consulted on the
// access path; the counter array, however, is large (16 bits per page,
// 9 MB for the paper's configuration) and is the state cached in the
// Figure 9 experiment.
package hma

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds HMA's parameters.
type Config struct {
	// Interval is the migration epoch (paper: 100 ms; see EXPERIMENTS.md
	// for the scaling applied when traces are shorter than one epoch).
	Interval clock.Duration
	// SortStall is the time the OS spends sorting the counters at each
	// boundary (paper: 7 ms baseline, 4.2 ms in the future-scaling study).
	// Migrations cannot begin until the sort finishes, so decisions land
	// stale; the stalled CPUs themselves issue no memory requests during
	// the sort, so the penalty does not appear directly in AMMAT.
	SortStall clock.Duration
	// CounterBits bounds each activity counter (paper: 16).
	CounterBits int
	// HotThreshold is the minimum interval count for a page to be a
	// migration candidate. Thresholding is what makes HMA's migration
	// volume sensitive to how many requests were serviced per interval —
	// the Figure 9 effect.
	HotThreshold uint64
	// MaxMigrations caps pages moved into fast memory per interval.
	MaxMigrations int
	// CacheBytes/CacheWays model the on-chip counter cache (0 = counters
	// accessible for free, as in the cache-disabled experiments).
	CacheBytes int
	CacheWays  int
}

// DefaultConfig returns the paper's baseline HMA parameters.
func DefaultConfig() Config {
	return Config{
		Interval:      100 * clock.Millisecond,
		SortStall:     7 * clock.Millisecond,
		CounterBits:   16,
		HotThreshold:  4,
		MaxMigrations: 8192,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("hma: interval %d", c.Interval)
	case c.SortStall < 0 || c.SortStall >= c.Interval:
		return fmt.Errorf("hma: sort stall %d outside [0, interval)", c.SortStall)
	case c.CounterBits <= 0 || c.CounterBits > 64:
		return fmt.Errorf("hma: counter width %d", c.CounterBits)
	case c.MaxMigrations <= 0:
		return fmt.Errorf("hma: max migrations %d", c.MaxMigrations)
	case c.CacheBytes < 0:
		return fmt.Errorf("hma: cache %d bytes", c.CacheBytes)
	}
	return nil
}

// counterEntryBytes is the modelled counter size (16-bit counters: 32 per
// 64 B backing block).
const counterEntryBytes = 2

const countersPerBlock = mech.BlockBytes / counterEntryBytes

// HMA implements mech.Mechanism.
//
// The counter array journals the pages touched each interval (tab.U16Zero),
// which turns the two O(total pages) boundary scans — candidate gathering
// and the counter clear — into O(touched) walks: a page with count zero can
// be neither a migration candidate (threshold >= 1) nor in need of
// clearing. The remap and inverted tables recycle through tab pools.
type HMA struct {
	cfg     Config
	backend *mech.Backend
	layout  addr.Layout
	geom    *addr.Geom

	counters   *tab.U16Zero // per flat page, this interval
	counterMax uint16
	remap      *tab.U32       // flat page -> physical slot (flat page index)
	inverted   *tab.U32       // fast slot -> resident flat page
	locks      mech.LockTable // page -> in-flight swap completion
	cache      *mech.Cache

	touch       mech.TouchFilter
	next        clock.Time // next boundary
	queue       []queuedSwap
	qpos        int
	lastSwapEnd clock.Time
	stats       mech.MigStats

	// plan is non-nil only while AccessColumn is mid-span: drained chunks
	// flush the channels they touch through it before issuing.
	plan *mech.ColumnPlan

	// Boundary-pass scratch, reused across intervals.
	hot     []pageCount
	warm    []slotCount
	warmSet *tab.EpochSet // fast slots whose resident was counted this interval
	victims []uint32
	hSorter hotSorter
	sSorter slotSorter

	// In-flight swap state across its chunks.
	swapSkip bool
	swapOld  uint32 // slow slot being vacated
	swapRes  uint32 // page being evicted from the fast slot
}

// swapChunks paces each page copy as 8 chunks of 4 line-pairs so the OS
// copy loop interleaves with demand traffic (see mech.SwapGlobalChunk).
const swapChunks = 8

const linesPerChunk = addr.LinesPerPage / swapChunks

// queuedSwap is one scheduled unit of migration work: chunk `chunk` of the
// swap promoting `page` into fast slot `victim`, starting no earlier than
// `start` (after the end of the OS sort). Chunk 0 updates the tables.
type queuedSwap struct {
	start  clock.Time
	page   uint32
	victim uint32
	chunk  uint8
}

// New builds an HMA over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*HMA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("hma: layout is not two-level")
	}
	if cfg.CacheWays <= 0 {
		cfg.CacheWays = 8
	}
	total := int(l.TotalPages())
	h := &HMA{
		cfg:      cfg,
		backend:  b,
		layout:   l,
		geom:     &b.Geom,
		counters: tab.NewU16Zero(total),
		remap:    tab.NewU32(total),
		inverted: tab.NewU32(int(l.FastPages())),
		warmSet:  tab.NewEpochSet(int(l.FastPages())),
		next:     cfg.Interval,
	}
	if cfg.CounterBits >= 16 {
		h.counterMax = ^uint16(0)
	} else {
		h.counterMax = uint16(1)<<cfg.CounterBits - 1
	}
	if cfg.CacheBytes > 0 {
		h.cache = mech.NewCache(cfg.CacheBytes, cfg.CacheWays)
	}
	return h, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, b *mech.Backend) *HMA {
	h, err := New(cfg, b)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements mech.Mechanism.
func (h *HMA) Name() string { return "HMA" }

// Stats implements mech.Mechanism.
func (h *HMA) Stats() mech.MigStats { return h.stats }

// SharedTouch implements mech.TouchSharer. HMA is still not pod-sharded —
// its interval migrations cross pods — so the engine only uses this for
// differential state checks, never concurrently.
func (h *HMA) SharedTouch() *mech.TouchFilter { return &h.touch }

// Release implements mech.Releaser; the mechanism must not be used after.
func (h *HMA) Release() {
	h.counters.Release()
	h.remap.Release()
	h.inverted.Release()
	h.warmSet.Release()
	h.counters, h.remap, h.inverted, h.warmSet = nil, nil, nil, nil
}

// Access implements mech.Mechanism.
func (h *HMA) Access(r *trace.Request, at clock.Time) clock.Time {
	page := uint32(addr.PageOf(addr.Addr(r.Addr)))
	li := int(uint64(addr.LineOf(addr.Addr(r.Addr))) % addr.LinesPerPage)
	return h.access(r, page, li, at, nil)
}

// AccessDecoded implements mech.Mechanism. The page and line come
// from the plane; for un-remapped pages (the identity mapping, most of
// the trace) the plane's precomputed home channel/row services the access
// directly, and only migrated pages re-derive HomeFrame(slot) at runtime.
func (h *HMA) AccessDecoded(r *trace.Request, d *trace.Decoded, at clock.Time) clock.Time {
	return h.access(r, uint32(d.Page), int(d.Line), at, d)
}

func (h *HMA) access(r *trace.Request, page uint32, li int, at clock.Time, d *trace.Decoded) clock.Time {
	for at >= h.next {
		h.runInterval(h.next)
		h.next += h.cfg.Interval
	}
	if h.qpos < len(h.queue) && h.queue[h.qpos].start <= at {
		h.drain(at)
	}

	start := at
	if h.touch.Touch(r.Core, uint64(page)) {
		if c := h.counters.A[page]; c < h.counterMax {
			h.counters.Set(page, c, c+1)
		}
	}
	if h.cache != nil {
		block := uint64(page) / countersPerBlock
		if h.cache.Access(block) {
			h.stats.CacheHits++
		} else {
			h.stats.CacheMisses++
			start = h.backend.BookkeepingRead(int(uint64(page)%uint64(h.layout.NumPods)), block, start)
		}
	}
	var lockEnd clock.Time
	if end := h.locks.GetActive(uint64(page), start); end != 0 {
		lockEnd = end
		h.stats.LockStalls++
	}
	slot := addr.Page(h.remap.A[page])
	if d != nil && uint64(slot) == uint64(page) {
		// Identity remap: the plane already resolved the home location.
		return clock.Max(h.backend.LineAt(d.Chan, d.Row, r.Write, start), lockEnd)
	}
	pod, f := h.geom.HomeFrame(slot)
	return clock.Max(h.backend.Line(pod, f, li, r.Write, start), lockEnd)
}

// AccessColumn implements mech.Mechanism: the access path with
// demand accesses gathered into per-channel columns, flushed fully at
// interval boundaries and channel-scoped at queue drains (a drained
// chunk touches exactly two channels; see executeSwap) — the only
// places HMA injects immediate channel traffic. The counter-cache
// configuration chains bookkeeping reads into demand issue times, so it
// keeps the per-request path.
func (h *HMA) AccessColumn(sc *trace.SpanColumns, at, done []clock.Time) {
	dec := sc.Dec
	if h.cache != nil {
		for i := range dec {
			r := sc.Request(i)
			done[i] = h.AccessDecoded(&r, &dec[i], at[i])
		}
		return
	}
	plan := h.backend.Plan()
	plan.Begin(done)
	h.plan = plan
	for i := range dec {
		d := &dec[i]
		t := at[i]
		if t >= h.next {
			plan.Flush()
			for t >= h.next {
				h.runInterval(h.next)
				h.next += h.cfg.Interval
			}
		}
		if h.qpos < len(h.queue) && h.queue[h.qpos].start <= t {
			h.drain(t)
		}
		page := uint32(d.Page)
		if h.touch.Touch(sc.Cores[i], uint64(page)) {
			if c := h.counters.A[page]; c < h.counterMax {
				h.counters.Set(page, c, c+1)
			}
		}
		var lockEnd clock.Time
		if end := h.locks.GetActive(uint64(page), t); end != 0 {
			lockEnd = end
			h.stats.LockStalls++
		}
		done[i] = lockEnd
		if slot := addr.Page(h.remap.A[page]); uint64(slot) == uint64(page) {
			plan.Route(int(d.Chan), uint64(d.Row), sc.Write(i), t, int32(i))
		} else {
			pod, f := h.geom.HomeFrame(slot)
			ch, row := h.backend.LineLoc(pod, f)
			plan.Route(ch, row, sc.Write(i), t, int32(i))
		}
	}
	h.plan = nil
	plan.Flush()
}

// pageCount pairs a page with its interval count for sorting.
type pageCount struct {
	page  uint32
	count uint16
}

// hotSorter orders candidates by count descending, page ascending — a
// strict total order, so the result is algorithm-independent.
type hotSorter struct{ s []pageCount }

func (o *hotSorter) Len() int { return len(o.s) }
func (o *hotSorter) Less(i, j int) bool {
	if o.s[i].count != o.s[j].count {
		return o.s[i].count > o.s[j].count
	}
	return o.s[i].page < o.s[j].page
}
func (o *hotSorter) Swap(i, j int) { o.s[i], o.s[j] = o.s[j], o.s[i] }

// runInterval models HMA's OS-driven epoch: flush any swaps left from the
// previous epoch, pick hot slow-resident pages above the threshold, pair
// them with the coldest fast-resident victims, and queue the swaps to
// execute once the counter sort completes (boundary + SortStall).
func (h *HMA) runInterval(boundary clock.Time) {
	h.stats.Intervals++

	// Retire the previous epoch's queue: finish partially copied swaps,
	// drop the ones that never started (stale OS decisions).
	flushing := h.qpos > 0 && h.queue[h.qpos-1].chunk != swapChunks-1
	for h.qpos < len(h.queue) {
		sw := h.queue[h.qpos]
		if sw.chunk == 0 {
			flushing = false
		}
		if !flushing && sw.chunk == 0 {
			h.qpos += swapChunks
			h.stats.DroppedMigrations++
			continue
		}
		if sw.start < boundary {
			sw.start = boundary
		}
		h.executeSwap(sw)
		h.qpos++
	}
	h.locks.Sweep(boundary)

	// Gather candidates: hot pages currently in slow memory. Only pages in
	// the interval's touch journal can clear the threshold (untouched
	// pages count zero), and the sort below imposes a total order, so
	// walking the journal instead of the whole counter array is exact.
	hot := h.hot[:0]
	fastPages := uint32(h.geom.FastPagesN())
	for _, p := range h.counters.Touched() {
		c := h.counters.A[p]
		if uint64(c) < h.cfg.HotThreshold {
			continue
		}
		if h.remap.A[p] >= fastPages { // resident in slow memory
			hot = append(hot, pageCount{p, c})
		}
	}
	h.hSorter.s = hot
	sort.Sort(&h.hSorter)
	if len(hot) > h.cfg.MaxMigrations {
		hot = hot[:h.cfg.MaxMigrations]
	}
	h.hot = hot

	h.queue = h.queue[:0]
	h.qpos = 0
	if len(hot) > 0 {
		victims := h.coldestFastSlots(len(hot))
		sortDone := boundary + h.cfg.SortStall
		// Pace the OS copy loop over the remainder of the epoch so the
		// copies interleave with demand traffic instead of monopolizing
		// the channels in one burst.
		spacing := (h.cfg.Interval - h.cfg.SortStall) / clock.Duration(len(hot)+1)
		chunkSpacing := spacing / swapChunks
		for i, hc := range hot {
			if i >= len(victims) {
				break
			}
			if uint64(h.counters.A[h.inverted.A[victims[i]]]) >= h.cfg.HotThreshold {
				continue // victim is itself hot; skip
			}
			slot := sortDone + clock.Duration(i)*spacing
			for ch := 0; ch < swapChunks; ch++ {
				h.queue = append(h.queue, queuedSwap{
					start:  slot + clock.Duration(ch)*chunkSpacing,
					page:   hc.page,
					victim: victims[i],
					chunk:  uint8(ch),
				})
			}
		}
	}
	if h.lastSwapEnd < boundary {
		h.lastSwapEnd = boundary
	}
	h.counters.Clear()
}

// drain executes queued swaps whose start time has arrived, keeping
// channel traffic in time order.
func (h *HMA) drain(now clock.Time) {
	for h.qpos < len(h.queue) && h.queue[h.qpos].start <= now {
		h.executeSwap(h.queue[h.qpos])
		h.qpos++
	}
}

// executeSwap performs one queued chunk of a page swap through the OS
// datapath. Chunk 0 updates the page tables and locks both pages.
func (h *HMA) executeSwap(sw queuedSwap) {
	if sw.chunk == 0 {
		h.swapSkip = true
		cur := h.remap.A[sw.page]
		if cur < uint32(h.geom.FastPagesN()) {
			return // already promoted
		}
		h.swapSkip = false
		h.swapOld = cur
		h.swapRes = h.inverted.A[sw.victim]
		h.remap.Set(sw.page, sw.victim)
		h.remap.Set(h.swapRes, cur)
		h.inverted.Set(sw.victim, sw.page)
		h.stats.PageMigrations++
	}
	if h.swapSkip {
		return
	}
	// Chunks issue at their paced schedule (see core.executeSwap). On the
	// column path (h.plan non-nil) the chunk flushes just the two channels
	// it touches before issuing.
	lo := int(sw.chunk) * linesPerChunk
	end := h.backend.SwapGlobalChunkPlanned(h.plan, addr.Page(h.swapOld), addr.Page(sw.victim),
		lo, lo+linesPerChunk, sw.start)
	h.stats.LineMigrations += 2 * linesPerChunk
	h.stats.BytesMoved += 2 * linesPerChunk * addr.LineBytes
	h.stats.GlobalMoveLines += 2 * linesPerChunk
	if end > h.lastSwapEnd {
		h.lastSwapEnd = end
	}
	h.locks.Raise(uint64(sw.page), end)
	h.locks.Raise(uint64(h.swapRes), end)
}

// slotCount pairs a fast slot with its resident's interval count.
type slotCount struct {
	slot  uint32
	count uint16
}

// slotSorter orders slots by count ascending, slot ascending — again a
// strict total order.
type slotSorter struct{ s []slotCount }

func (o *slotSorter) Len() int { return len(o.s) }
func (o *slotSorter) Less(i, j int) bool {
	if o.s[i].count != o.s[j].count {
		return o.s[i].count < o.s[j].count
	}
	return o.s[i].slot < o.s[j].slot
}
func (o *slotSorter) Swap(i, j int) { o.s[i], o.s[j] = o.s[j], o.s[i] }

// coldestFastSlots returns up to n fast slots ordered by ascending
// resident count, slot ascending on ties (the OS's victim choice under
// full counters).
//
// Equivalent to sorting all fast slots by (count, slot) and taking the
// first n, but without touching the whole fast region: a slot's resident
// counts zero exactly when it is absent from the interval's touch journal,
// and all such slots precede every warm slot in the total order. So the
// prefix is: cold slots in ascending slot order (enumerated by scanning
// slot IDs and skipping the journal-derived warm set), then warm slots
// sorted.
func (h *HMA) coldestFastSlots(n int) []uint32 {
	fastPages := uint32(h.geom.FastPagesN())
	warm := h.warm[:0]
	h.warmSet.BeginEpoch()
	for _, p := range h.counters.Touched() {
		if slot := h.remap.A[p]; slot < fastPages {
			warm = append(warm, slotCount{slot, h.counters.A[p]})
			h.warmSet.Add(slot)
		}
	}
	h.warm = warm

	out := h.victims[:0]
	for slot := uint32(0); slot < fastPages && len(out) < n; slot++ {
		if !h.warmSet.Has(slot) {
			out = append(out, slot)
		}
	}
	if len(out) < n {
		h.sSorter.s = warm
		sort.Sort(&h.sSorter)
		for _, s := range warm {
			if len(out) >= n {
				break
			}
			out = append(out, s.slot)
		}
	}
	h.victims = out
	return out
}

// CheckInvariants verifies that the remap table is a permutation of the
// flat page space and that the inverted table matches it. O(memory);
// intended for tests.
func (h *HMA) CheckInvariants() error {
	seen := make([]bool, len(h.remap.A))
	for page, slot := range h.remap.A {
		if int(slot) >= len(h.remap.A) {
			return fmt.Errorf("hma: page %d maps to out-of-range slot %d", page, slot)
		}
		if seen[slot] {
			return fmt.Errorf("hma: slot %d mapped twice", slot)
		}
		seen[slot] = true
	}
	for slot, page := range h.inverted.A {
		if h.remap.A[page] != uint32(slot) {
			return fmt.Errorf("hma: inverted[%d]=%d but remap[%d]=%d",
				slot, page, page, h.remap.A[page])
		}
	}
	return nil
}

// FrameOfPage reports the current physical slot of a flat page, for tests.
func (h *HMA) FrameOfPage(p addr.Page) addr.Page { return addr.Page(h.remap.A[uint32(p)]) }

var (
	_ mech.Mechanism = (*HMA)(nil)
	_ mech.Releaser  = (*HMA)(nil)
)
