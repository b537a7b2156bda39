// Package migrant models a MigrantStore-style OS/virtual-memory-assisted
// migration policy (PAPERS.md): instead of hardware epoch sorting, the OS
// promotes a slow-tier page the moment its access count crosses a hot
// threshold — the software analogue of a minor page fault on a
// watch-marked page — paying a fixed fault-handling cost (fault + TLB
// shootdown) before the copy starts. Access counts come from harvested
// A-bits, cleared every scan epoch, and victims in the fast tier are
// chosen by a second-chance clock hand over the fast frames, exactly the
// machinery a kernel has for free.
//
// The policy's assumptions — migration decisions are worth an OS round
// trip, the slow tier is much slower than the fast one — are what make it
// interesting on the NVM-like and CXL-attached specs the registry ships:
// against DDR4 the fault cost dominates, against PCM it amortizes.
package migrant

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds the policy's parameters.
type Config struct {
	// Epoch is the A-bit scan period: counters harvested during an epoch
	// are cleared at its end (default 100 µs).
	Epoch clock.Duration
	// HotThreshold is the epoch access count at which a slow-resident
	// page faults into the migration path (default 8). Promotion triggers
	// the moment the count is reached — event-driven, not sorted at
	// boundaries.
	HotThreshold int
	// FaultCost is the OS overhead between the triggering access and the
	// start of the page copy: fault handling, victim selection and the
	// TLB shootdown (default 2 µs).
	FaultCost clock.Duration
	// MaxPending caps concurrently scheduled promotions; faults beyond it
	// are dropped until copies retire (default 64).
	MaxPending int
	// CounterBits bounds each per-page access counter (default 8).
	CounterBits int
}

// DefaultConfig returns the baseline parameters.
func DefaultConfig() Config {
	return Config{
		Epoch:        100 * clock.Microsecond,
		HotThreshold: 8,
		FaultCost:    2 * clock.Microsecond,
		MaxPending:   64,
		CounterBits:  8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Epoch <= 0:
		return fmt.Errorf("migrant: epoch %d", c.Epoch)
	case c.HotThreshold <= 0:
		return fmt.Errorf("migrant: hot threshold %d", c.HotThreshold)
	case c.FaultCost < 0 || c.FaultCost >= c.Epoch:
		return fmt.Errorf("migrant: fault cost %d outside [0, epoch)", c.FaultCost)
	case c.MaxPending <= 0:
		return fmt.Errorf("migrant: max pending %d", c.MaxPending)
	case c.CounterBits <= 0 || c.CounterBits > 16:
		return fmt.Errorf("migrant: counter width %d", c.CounterBits)
	}
	if max := uint64(1)<<c.CounterBits - 1; uint64(c.HotThreshold) > max {
		return fmt.Errorf("migrant: threshold %d exceeds %d-bit counter", c.HotThreshold, c.CounterBits)
	}
	return nil
}

// swapChunks paces each page copy as 8 chunks of 4 line-pairs, the same
// OS copy-loop pacing HMA models (see mech.Backend.SwapGlobalChunk).
const swapChunks = 8

const linesPerChunk = addr.LinesPerPage / swapChunks

// victimProbes bounds the clock hand's scan per fault; a lap that finds
// only hot or busy frames drops the promotion instead of spinning.
const victimProbes = 64

// queuedSwap is chunk `chunk` of the promotion of `page` into fast slot
// `victim`, starting no earlier than `start`. Chunk 0 rewrites the page
// tables and takes the locks.
type queuedSwap struct {
	start  clock.Time
	page   uint32
	victim uint32
	chunk  uint8
}

// Migrant implements mech.Mechanism.
type Migrant struct {
	cfg     Config
	backend *mech.Backend
	layout  addr.Layout
	geom    *addr.Geom

	counters   *tab.U16Zero // per flat page, this epoch (harvested A-bits)
	counterMax uint16
	remap      *tab.U32       // flat page -> physical slot (flat page index)
	inverted   *tab.U32       // fast slot -> resident flat page
	locks      mech.LockTable // page -> in-flight swap completion
	targeted   *tab.EpochSet  // fast slots already chosen as victims this epoch

	touch       mech.TouchFilter
	next        clock.Time // next epoch boundary
	hand        uint32     // clock-hand position over fast slots
	queue       []queuedSwap
	qpos        int
	pending     int // promotions scheduled but not finished copying
	lastSwapEnd clock.Time
	stats       mech.MigStats

	// plan is non-nil only while AccessColumn is mid-span: drained chunks
	// flush the channels they touch through it before issuing.
	plan *mech.ColumnPlan

	// In-flight swap state across its chunks.
	swapSkip bool
	swapOld  uint32 // slow slot being vacated
	swapRes  uint32 // page being evicted from the fast slot
}

// New builds a Migrant over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*Migrant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("migrant: layout is not two-level")
	}
	m := &Migrant{
		cfg:      cfg,
		backend:  b,
		layout:   l,
		geom:     &b.Geom,
		counters: tab.NewU16Zero(int(l.TotalPages())),
		remap:    tab.NewU32(int(l.TotalPages())),
		inverted: tab.NewU32(int(l.FastPages())),
		targeted: tab.NewEpochSet(int(l.FastPages())),
		next:     cfg.Epoch,
	}
	if cfg.CounterBits >= 16 {
		m.counterMax = ^uint16(0)
	} else {
		m.counterMax = uint16(1)<<cfg.CounterBits - 1
	}
	m.targeted.BeginEpoch()
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, b *mech.Backend) *Migrant {
	m, err := New(cfg, b)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements mech.Mechanism.
func (m *Migrant) Name() string { return "Migrant" }

// Stats implements mech.Mechanism.
func (m *Migrant) Stats() mech.MigStats { return m.stats }

// SharedTouch implements mech.TouchSharer. Migrant is not pod-sharded —
// its promotions cross pods through the global switch — so the engine
// only uses this for differential state checks.
func (m *Migrant) SharedTouch() *mech.TouchFilter { return &m.touch }

// Release implements mech.Releaser; the mechanism must not be used after.
func (m *Migrant) Release() {
	m.counters.Release()
	m.remap.Release()
	m.inverted.Release()
	m.targeted.Release()
	m.counters, m.remap, m.inverted, m.targeted = nil, nil, nil, nil
}

// Access implements mech.Mechanism.
func (m *Migrant) Access(r *trace.Request, at clock.Time) clock.Time {
	page := uint32(addr.PageOf(addr.Addr(r.Addr)))
	li := int(uint64(addr.LineOf(addr.Addr(r.Addr))) % addr.LinesPerPage)
	return m.access(r, page, li, at, nil)
}

// AccessDecoded implements mech.Mechanism: identity-remapped pages
// (most of the trace) service at the plane's precomputed home location.
func (m *Migrant) AccessDecoded(r *trace.Request, d *trace.Decoded, at clock.Time) clock.Time {
	return m.access(r, uint32(d.Page), int(d.Line), at, d)
}

func (m *Migrant) access(r *trace.Request, page uint32, li int, at clock.Time, d *trace.Decoded) clock.Time {
	for at >= m.next {
		m.runEpoch(m.next)
		m.next += m.cfg.Epoch
	}
	if m.qpos < len(m.queue) && m.queue[m.qpos].start <= at {
		m.drain(at)
	}

	if m.touch.Touch(r.Core, uint64(page)) {
		m.observe(page, at)
	}
	var lockEnd clock.Time
	if end := m.locks.GetActive(uint64(page), at); end != 0 {
		lockEnd = end
		m.stats.LockStalls++
	}
	slot := addr.Page(m.remap.A[page])
	if d != nil && uint64(slot) == uint64(page) {
		// Identity remap: the plane already resolved the home location.
		return clock.Max(m.backend.LineAt(d.Chan, d.Row, r.Write, at), lockEnd)
	}
	pod, f := m.geom.HomeFrame(slot)
	return clock.Max(m.backend.Line(pod, f, li, r.Write, at), lockEnd)
}

// AccessColumn implements mech.Mechanism: the access path with
// demand accesses gathered into per-channel columns, flushed fully at
// epoch boundaries and channel-scoped at queue drains (a drained chunk
// touches exactly two channels; see executeSwap) — the only places the
// policy injects immediate channel traffic.
func (m *Migrant) AccessColumn(sc *trace.SpanColumns, at, done []clock.Time) {
	dec := sc.Dec
	plan := m.backend.Plan()
	plan.Begin(done)
	m.plan = plan
	for i := range dec {
		d := &dec[i]
		t := at[i]
		if t >= m.next {
			plan.Flush()
			for t >= m.next {
				m.runEpoch(m.next)
				m.next += m.cfg.Epoch
			}
		}
		if m.qpos < len(m.queue) && m.queue[m.qpos].start <= t {
			m.drain(t)
		}
		page := uint32(d.Page)
		if m.touch.Touch(sc.Cores[i], uint64(page)) {
			m.observe(page, t)
		}
		var lockEnd clock.Time
		if end := m.locks.GetActive(uint64(page), t); end != 0 {
			lockEnd = end
			m.stats.LockStalls++
		}
		done[i] = lockEnd
		if slot := addr.Page(m.remap.A[page]); uint64(slot) == uint64(page) {
			plan.Route(int(d.Chan), uint64(d.Row), sc.Write(i), t, int32(i))
		} else {
			pod, f := m.geom.HomeFrame(slot)
			ch, row := m.backend.LineLoc(pod, f)
			plan.Route(ch, row, sc.Write(i), t, int32(i))
		}
	}
	m.plan = nil
	plan.Flush()
}

// observe bumps the page's epoch counter and, when a slow-resident page
// crosses the hot threshold, schedules its promotion — the event-driven
// fault path that replaces HMA's boundary sort.
func (m *Migrant) observe(page uint32, at clock.Time) {
	c := m.counters.A[page]
	if c >= m.counterMax {
		return
	}
	m.counters.Set(page, c, c+1)
	if uint64(c)+1 != uint64(m.cfg.HotThreshold) {
		return // crosses the threshold exactly once per epoch
	}
	if m.remap.A[page] < uint32(m.geom.FastPagesN()) {
		return // already fast-resident
	}
	m.schedule(page, at)
}

// schedule queues the paced copy of one promotion, fault cost first.
func (m *Migrant) schedule(page uint32, at clock.Time) {
	if m.pending >= m.cfg.MaxPending {
		m.stats.DroppedMigrations++
		return
	}
	if m.locks.GetActive(uint64(page), at) != 0 {
		return // mid-swap already (being demoted); let it settle
	}
	victim, ok := m.pickVictim(at)
	if !ok {
		m.stats.DroppedMigrations++
		return
	}
	m.targeted.Add(victim)
	start := at + clock.Time(m.cfg.FaultCost)
	chunkGap := m.cfg.FaultCost / swapChunks
	for ch := 0; ch < swapChunks; ch++ {
		m.queue = append(m.queue, queuedSwap{
			start:  start + clock.Duration(ch)*chunkGap,
			page:   page,
			victim: victim,
			chunk:  uint8(ch),
		})
	}
	m.pending++
}

// pickVictim advances the second-chance clock hand over the fast slots:
// the first frame whose resident is neither hot this epoch, nor mid-swap,
// nor already targeted is evicted. The scan is bounded; a lap of hot
// frames means the fast tier is saturated and the fault is dropped.
func (m *Migrant) pickVictim(at clock.Time) (uint32, bool) {
	fastPages := uint32(m.geom.FastPagesN())
	probes := victimProbes
	if uint32(probes) > fastPages {
		probes = int(fastPages)
	}
	for i := 0; i < probes; i++ {
		slot := m.hand
		m.hand++
		if m.hand >= fastPages {
			m.hand = 0
		}
		if m.targeted.Has(slot) {
			continue
		}
		resident := m.inverted.A[slot]
		if uint64(m.counters.A[resident]) >= uint64(m.cfg.HotThreshold) {
			continue // second chance: hot resident survives the lap
		}
		if m.locks.GetActive(uint64(resident), at) != 0 {
			continue // mid-swap
		}
		return slot, true
	}
	return 0, false
}

// runEpoch is the A-bit scan boundary: finish the copies still queued,
// clear the harvested counters and reset the victim bookkeeping.
func (m *Migrant) runEpoch(boundary clock.Time) {
	m.stats.Intervals++
	for m.qpos < len(m.queue) {
		m.executeSwap(m.queue[m.qpos])
		m.qpos++
	}
	m.queue = m.queue[:0]
	m.qpos = 0
	m.pending = 0
	m.locks.Sweep(boundary)
	m.counters.Clear()
	m.targeted.BeginEpoch()
	if m.lastSwapEnd < boundary {
		m.lastSwapEnd = boundary
	}
}

// drain executes queued swap chunks whose start time has arrived.
func (m *Migrant) drain(now clock.Time) {
	for m.qpos < len(m.queue) && m.queue[m.qpos].start <= now {
		m.executeSwap(m.queue[m.qpos])
		m.qpos++
		if m.queue[m.qpos-1].chunk == swapChunks-1 && m.pending > 0 {
			m.pending--
		}
	}
}

// executeSwap performs one queued chunk of a promotion through the OS
// datapath. Chunk 0 rewrites the page tables and locks both pages.
func (m *Migrant) executeSwap(sw queuedSwap) {
	if sw.chunk == 0 {
		m.swapSkip = true
		cur := m.remap.A[sw.page]
		if cur < uint32(m.geom.FastPagesN()) {
			return // already promoted
		}
		m.swapSkip = false
		m.swapOld = cur
		m.swapRes = m.inverted.A[sw.victim]
		m.remap.Set(sw.page, sw.victim)
		m.remap.Set(m.swapRes, cur)
		m.inverted.Set(sw.victim, sw.page)
		m.stats.PageMigrations++
	}
	if m.swapSkip {
		return
	}
	// The OS copy crosses the global switch between the two slots'
	// channels; on the column path (m.plan non-nil) the chunk flushes
	// just the channels it touches before issuing.
	lo := int(sw.chunk) * linesPerChunk
	end := m.backend.SwapGlobalChunkPlanned(m.plan, addr.Page(m.swapOld), addr.Page(sw.victim),
		lo, lo+linesPerChunk, sw.start)
	m.stats.LineMigrations += 2 * linesPerChunk
	m.stats.BytesMoved += 2 * linesPerChunk * addr.LineBytes
	m.stats.GlobalMoveLines += 2 * linesPerChunk
	if end > m.lastSwapEnd {
		m.lastSwapEnd = end
	}
	m.locks.Raise(uint64(sw.page), end)
	m.locks.Raise(uint64(m.swapRes), end)
}

// CheckInvariants verifies that the remap table is a permutation of the
// flat page space and that the inverted table matches it. O(memory);
// intended for tests.
func (m *Migrant) CheckInvariants() error {
	seen := make([]bool, len(m.remap.A))
	for page, slot := range m.remap.A {
		if int(slot) >= len(m.remap.A) {
			return fmt.Errorf("migrant: page %d maps to out-of-range slot %d", page, slot)
		}
		if seen[slot] {
			return fmt.Errorf("migrant: slot %d mapped twice", slot)
		}
		seen[slot] = true
	}
	for slot, page := range m.inverted.A {
		if m.remap.A[page] != uint32(slot) {
			return fmt.Errorf("migrant: inverted[%d]=%d but remap[%d]=%d",
				slot, page, page, m.remap.A[page])
		}
	}
	return nil
}

// FrameOfPage reports the current physical slot of a flat page, for tests.
func (m *Migrant) FrameOfPage(p addr.Page) addr.Page { return addr.Page(m.remap.A[uint32(p)]) }

var (
	_ mech.Mechanism   = (*Migrant)(nil)
	_ mech.TouchSharer = (*Migrant)(nil)
	_ mech.Releaser    = (*Migrant)(nil)
)
