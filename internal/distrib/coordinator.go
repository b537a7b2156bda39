package distrib

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Config tunes a Coordinator. Jobs is required; everything else has a
// serviceable default.
type Config struct {
	// Jobs are the experiments to sweep.
	Jobs []exp.Job
	// LeaseTTL is how long a granted lease lives without renewal before
	// its cells re-queue. Default 30s.
	LeaseTTL time.Duration
	// MaxBatch caps the cells granted per lease regardless of what the
	// worker asks for. Default 64.
	MaxBatch int
	// CheckpointPath, when non-empty, is the MPC1 file completed cells
	// are checkpointed to (and restored from, if it already exists and
	// matches this plan).
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval inside Wait. Default
	// 10s. A final checkpoint is always written when Wait returns.
	CheckpointEvery time.Duration
	// Results, when non-nil, is consulted for already-computed cells at
	// construction (its Lookup never blocks) and surfaced in Status.
	Results *resultcache.Cache
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Now overrides the clock for tests. Default time.Now.
	Now func() time.Time
}

type cellState uint8

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed
)

type lease struct {
	id       string
	worker   string
	indices  []int
	deadline time.Time
}

type workerStats struct {
	cells     int
	failures  int
	firstSeen time.Time
	lastSeen  time.Time
}

// Coordinator owns a sweep: the shared plan, the pending-cell queue, the
// lease table and the completed frames. All methods are safe for
// concurrent use (the HTTP handler calls them from request goroutines).
type Coordinator struct {
	cfg    Config
	plan   *exp.Plan
	planFP uint64
	spec   SweepSpec

	mu         sync.Mutex
	states     []cellState
	frames     [][]byte // verified MPR1 frame per done cell
	failErrs   map[int]string
	queue      []int
	leases     map[string]*lease
	seq        uint64
	doneCount  int
	failCount  int
	duplicates int
	rejected   int
	expired    int
	workers    map[string]*workerStats
	dirty      bool // done set changed since last checkpoint

	doneCh   chan struct{}
	doneOnce sync.Once
}

// New builds a coordinator for cfg.Jobs. If cfg.CheckpointPath names a
// readable checkpoint for the same plan, its completed cells are adopted;
// a missing, corrupt, truncated or mismatched checkpoint is silently a
// fresh start (checkpoints remove work, they never fail a sweep). If
// cfg.Results is set, cells it can already answer are adopted too.
func New(cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	plan, err := exp.BuildPlan(cfg.Jobs)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	co := &Coordinator{
		cfg:      cfg,
		plan:     plan,
		planFP:   plan.Fingerprint(),
		spec:     SweepSpec{SimVersion: sim.Version, Jobs: cfg.Jobs},
		states:   make([]cellState, plan.Len()),
		frames:   make([][]byte, plan.Len()),
		failErrs: make(map[int]string),
		leases:   make(map[string]*lease),
		workers:  make(map[string]*workerStats),
		doneCh:   make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		if n := co.restoreCheckpoint(cfg.CheckpointPath); n > 0 {
			co.logf("distrib: restored %d/%d cells from %s", n, plan.Len(), cfg.CheckpointPath)
		}
	}
	if cfg.Results != nil {
		if n := co.AdoptCached(cfg.Results); n > 0 {
			co.logf("distrib: adopted %d/%d cells from result cache", n, plan.Len())
		}
	}
	co.mu.Lock()
	for i := range co.states {
		if co.states[i] == cellPending {
			co.queue = append(co.queue, i)
		}
	}
	co.checkDoneLocked()
	co.mu.Unlock()
	return co, nil
}

// Plan returns the shared cell plan.
func (co *Coordinator) Plan() *exp.Plan { return co.plan }

// AdoptCached marks every pending cell the cache can already answer as
// done, without leasing it. Returns how many cells were adopted. Safe to
// call at any time; cells already done or leased are left alone.
func (co *Coordinator) AdoptCached(results *resultcache.Cache) int {
	adopted := 0
	for i := 0; i < co.plan.Len(); i++ {
		co.mu.Lock()
		pending := co.states[i] == cellPending
		co.mu.Unlock()
		if !pending {
			continue
		}
		key := co.plan.Key(i)
		payload, ok := results.Lookup(key)
		if !ok {
			continue
		}
		frame := resultcache.EncodeFile(key, payload)
		co.mu.Lock()
		if co.states[i] == cellPending {
			co.markDoneLocked(i, frame)
			adopted++
		}
		co.mu.Unlock()
	}
	return adopted
}

// SpecResponse answers a worker's spec fetch.
func (co *Coordinator) SpecResponse() SpecResponse {
	return SpecResponse{Spec: co.spec, PlanFP: co.planFP, Total: co.plan.Len()}
}

// Lease grants up to min(req.Max, MaxBatch) pending cells. With nothing
// pending but leases outstanding it returns an empty grant with a retry
// hint; with everything finished it returns Done.
func (co *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	now := co.cfg.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(now)
	co.touchWorkerLocked(req.Worker, now)
	if co.doneCount+co.failCount == len(co.states) {
		return LeaseResponse{Done: true}
	}
	max := req.Max
	if max <= 0 || max > co.cfg.MaxBatch {
		max = co.cfg.MaxBatch
	}
	// Pop only still-pending cells: the queue can hold stale entries for
	// cells that were re-queued by an expiry and then completed anyway
	// when the expired lease's results arrived (they are verified by
	// content, not lease liveness). Granting one of those would run a
	// finished cell again and double-count its completion.
	var indices []int
	for len(indices) < max && len(co.queue) > 0 {
		i := co.queue[0]
		co.queue = co.queue[1:]
		if co.states[i] != cellPending {
			continue
		}
		co.states[i] = cellLeased
		indices = append(indices, i)
	}
	if len(indices) == 0 {
		return LeaseResponse{RetryMillis: retryHint(co.cfg.LeaseTTL)}
	}
	co.seq++
	l := &lease{
		id:       fmt.Sprintf("l%d", co.seq),
		worker:   req.Worker,
		indices:  indices,
		deadline: now.Add(co.cfg.LeaseTTL),
	}
	co.leases[l.id] = l
	return LeaseResponse{
		LeaseID:   l.id,
		Indices:   indices,
		TTLMillis: co.cfg.LeaseTTL.Milliseconds(),
	}
}

// Renew extends a lease's deadline by one TTL.
func (co *Coordinator) Renew(req RenewRequest) RenewResponse {
	now := co.cfg.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(now)
	l, ok := co.leases[req.LeaseID]
	if !ok {
		return RenewResponse{OK: false}
	}
	l.deadline = now.Add(co.cfg.LeaseTTL)
	return RenewResponse{OK: true}
}

// Complete merges a finished batch. Every frame is verified — framing and
// checksum, and its embedded key line byte-equal to the canonical line of
// the plan's key for that index (resultcache.VerifyFile) — before
// acceptance, so a confused or skewed worker cannot poison the
// result set; unverifiable frames re-queue their cells. Verified frames
// are accepted even when the lease has expired or is unknown (the work is
// correct whoever's lease it rode in on); frames for cells already done
// count as duplicates and are dropped, which makes Complete idempotent —
// the retried and the raced call observe the same final state.
func (co *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	now := co.cfg.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(now)
	ws := co.touchWorkerLocked(req.Worker, now)
	var resp CompleteResponse
	for _, cell := range req.Cells {
		i := cell.Index
		if i < 0 || i >= len(co.states) {
			resp.Rejected++
			co.rejected++
			continue
		}
		if co.states[i] == cellDone {
			resp.Duplicates++
			co.duplicates++
			continue
		}
		if cell.Error != "" {
			if co.states[i] != cellFailed {
				co.states[i] = cellFailed
				co.failCount++
				co.failErrs[i] = cell.Error
				if ws != nil {
					ws.failures++
				}
				co.logf("distrib: cell %d failed on %s: %s", i, req.Worker, cell.Error)
			}
			continue
		}
		if _, err := resultcache.VerifyFile(cell.Frame, co.plan.Key(i).Canonical()); err != nil {
			resp.Rejected++
			co.rejected++
			co.requeueLocked(i)
			continue
		}
		co.markDoneLocked(i, cell.Frame)
		resp.Accepted++
		if ws != nil {
			ws.cells++
		}
	}
	if l, ok := co.leases[req.LeaseID]; ok {
		// Whatever the lease didn't finish goes back in the queue.
		for _, i := range l.indices {
			co.requeueLocked(i)
		}
		delete(co.leases, req.LeaseID)
	}
	co.checkDoneLocked()
	resp.Done = co.doneCount+co.failCount == len(co.states)
	if resp.Accepted > 0 || resp.Duplicates > 0 || resp.Rejected > 0 {
		co.logf("distrib: %d/%d cells done (%d failed, %d dup) after batch from %s",
			co.doneCount, len(co.states), co.failCount, co.duplicates, req.Worker)
	}
	return resp
}

// markDoneLocked records a verified frame for cell i.
func (co *Coordinator) markDoneLocked(i int, frame []byte) {
	if co.states[i] == cellDone {
		return
	}
	if co.states[i] == cellFailed {
		co.failCount--
		delete(co.failErrs, i)
	}
	co.states[i] = cellDone
	co.frames[i] = frame
	co.doneCount++
	co.dirty = true
}

// requeueLocked returns a leased cell to the pending queue.
func (co *Coordinator) requeueLocked(i int) {
	if co.states[i] != cellLeased {
		return
	}
	co.states[i] = cellPending
	co.queue = append(co.queue, i)
}

// expireLocked re-queues the cells of every lease past its deadline.
func (co *Coordinator) expireLocked(now time.Time) {
	for id, l := range co.leases {
		if now.Before(l.deadline) {
			continue
		}
		for _, i := range l.indices {
			co.requeueLocked(i)
		}
		delete(co.leases, id)
		co.expired++
		co.logf("distrib: lease %s (%s) expired, %d cells re-queued", id, l.worker, len(l.indices))
	}
}

func (co *Coordinator) checkDoneLocked() {
	if co.doneCount+co.failCount == len(co.states) {
		co.doneOnce.Do(func() { close(co.doneCh) })
	}
}

func (co *Coordinator) touchWorkerLocked(name string, now time.Time) *workerStats {
	if name == "" {
		return nil
	}
	ws, ok := co.workers[name]
	if !ok {
		ws = &workerStats{firstSeen: now}
		co.workers[name] = ws
	}
	ws.lastSeen = now
	return ws
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// Done returns a channel closed once every cell is done or failed.
func (co *Coordinator) Done() <-chan struct{} { return co.doneCh }

// Wait blocks until the sweep finishes or ctx is canceled, expiring stale
// leases and checkpointing on the way. It always writes a final
// checkpoint (when one is configured) before returning, so a SIGTERM'd
// coordinator resumes from its last completed set. The error is ctx's
// when canceled, or the checkpoint write error if only that failed.
func (co *Coordinator) Wait(ctx context.Context) error {
	tickEvery := co.cfg.LeaseTTL / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	expire := time.NewTicker(tickEvery)
	defer expire.Stop()
	checkpoint := time.NewTicker(co.cfg.CheckpointEvery)
	defer checkpoint.Stop()
	var result error
	for waiting := true; waiting; {
		select {
		case <-co.doneCh:
			waiting = false
		case <-ctx.Done():
			result = ctx.Err()
			waiting = false
		case <-expire.C:
			co.mu.Lock()
			co.expireLocked(co.cfg.Now())
			co.mu.Unlock()
		case <-checkpoint.C:
			if err := co.Checkpoint(); err != nil {
				co.logf("distrib: checkpoint: %v", err)
			}
		}
	}
	if err := co.Checkpoint(); err != nil {
		co.logf("distrib: final checkpoint: %v", err)
		if result == nil {
			result = err
		}
	}
	return result
}

// MergeInto installs every completed cell's payload into the cache (which
// persists them when it has a store directory), under the plan's key for
// the cell. After a finished sweep, rendering the experiment tables
// against this cache reproduces a serial run byte for byte.
func (co *Coordinator) MergeInto(cache *resultcache.Cache) int {
	co.mu.Lock()
	var done []int
	frames := make([][]byte, 0, co.doneCount)
	for i, st := range co.states {
		if st == cellDone {
			done = append(done, i)
			frames = append(frames, co.frames[i])
		}
	}
	co.mu.Unlock()
	merged := 0
	for j, frame := range frames {
		key := co.plan.Key(done[j])
		payload, err := resultcache.VerifyFile(frame, key.Canonical())
		if err != nil {
			continue // cannot happen: frames were verified at acceptance
		}
		cache.Put(key, payload)
		merged++
	}
	return merged
}

// FailedCells returns the permanently failed cells' indices and errors,
// ascending by index.
func (co *Coordinator) FailedCells() map[int]string {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make(map[int]string, len(co.failErrs))
	for i, msg := range co.failErrs {
		out[i] = msg
	}
	return out
}

// WorkerStatus is one worker's view in Status.
type WorkerStatus struct {
	Cells       int     `json:"cells"`
	Failures    int     `json:"failures,omitempty"`
	CellsPerSec float64 `json:"cells_per_sec"`
	LastSeenMs  int64   `json:"last_seen_ms"` // since the status call
}

// Status is the coordinator's observable state, served on /statusz.
type Status struct {
	Total      int                     `json:"total"`
	Done       int                     `json:"done"`
	Failed     int                     `json:"failed"`
	Pending    int                     `json:"pending"`
	Leased     int                     `json:"leased"`
	Leases     int                     `json:"leases"`
	Duplicates int                     `json:"duplicates"`
	Rejected   int                     `json:"rejected"`
	Expired    int                     `json:"expired"`
	PlanFP     uint64                  `json:"plan_fp,string"`
	Workers    map[string]WorkerStatus `json:"workers,omitempty"`
	Cache      *resultcache.Stats      `json:"cache,omitempty"`
}

// Status snapshots the sweep's progress.
func (co *Coordinator) Status() Status {
	now := co.cfg.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	leased, pending := 0, 0
	for _, st := range co.states {
		switch st {
		case cellLeased:
			leased++
		case cellPending:
			pending++
		}
	}
	s := Status{
		Total:      len(co.states),
		Done:       co.doneCount,
		Failed:     co.failCount,
		Pending:    pending,
		Leased:     leased,
		Leases:     len(co.leases),
		Duplicates: co.duplicates,
		Rejected:   co.rejected,
		Expired:    co.expired,
		PlanFP:     co.planFP,
		Workers:    make(map[string]WorkerStatus, len(co.workers)),
	}
	for name, ws := range co.workers {
		elapsed := ws.lastSeen.Sub(ws.firstSeen).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(ws.cells) / elapsed
		}
		s.Workers[name] = WorkerStatus{
			Cells:       ws.cells,
			Failures:    ws.failures,
			CellsPerSec: rate,
			LastSeenMs:  now.Sub(ws.lastSeen).Milliseconds(),
		}
	}
	if co.cfg.Results != nil {
		st := co.cfg.Results.Stats()
		s.Cache = &st
	}
	return s
}

// ProgressLine renders a one-line human summary of Status for stderr.
func (s Status) ProgressLine() string {
	names := make([]string, 0, len(s.Workers))
	for name := range s.Workers {
		names = append(names, name)
	}
	sort.Strings(names)
	line := fmt.Sprintf("distrib: %d/%d done, %d leased, %d pending, %d failed, %d dup, %d expired",
		s.Done, s.Total, s.Leased, s.Pending, s.Failed, s.Duplicates, s.Expired)
	for _, name := range names {
		w := s.Workers[name]
		line += fmt.Sprintf(" | %s: %d cells %.1f/s", name, w.Cells, w.CellsPerSec)
	}
	return line
}

func retryHint(ttl time.Duration) int64 {
	ms := (ttl / 10).Milliseconds()
	if ms < 50 {
		ms = 50
	}
	return ms
}
