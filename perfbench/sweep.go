package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/exp"
	"repro/internal/resultcache"
)

// sweepFigures are the figures cmd/sweep runs by default.
var sweepFigures = []string{"fig6", "fig7"}

// sweepConfig is cmd/sweep's configuration: Quick scale over the sweep
// workload subset, 150k-request cells.
func sweepConfig(seed int64) exp.Config {
	cfg := exp.QuickConfig().WithWorkloads(exp.SweepWorkloadNames...)
	cfg.Requests = quickRequests
	cfg.Seed = seed
	return cfg
}

func sweepJobs(cfg exp.Config) []exp.Job {
	jobs := make([]exp.Job, 0, len(sweepFigures))
	for _, id := range sweepFigures {
		jobs = append(jobs, exp.Job{Experiment: id, Params: cfg.Params()})
	}
	return jobs
}

// sweepPass is one distributed sweep: a coordinator with a checkpoint file
// and a result store on 127.0.0.1, and nproc in-process workers speaking
// HTTP to it, configured as the CI distrib job runs them (3 s lease TTL,
// 1 s checkpoints, 2-cell leases, one cell at a time per worker).
type sweepPass struct {
	setup   time.Duration // coordinator (BuildPlan), listener, worker handshakes
	elapsed time.Duration // Wait, MergeInto and rendering
	plan    *exp.Plan
	results *resultcache.Cache
	tables  map[string]renderedTable
	status  distrib.Status
	calls   *transportStats
	merge   time.Duration
	ckpt    time.Duration // median checkpoint write during a traced pass
	render  time.Duration
}

// runSweepPass sets up a sweep and, unless setupOnly, runs it.
func runSweepPass(b *bench, tr *tracer, setupOnly bool) (p sweepPass, err error) {
	cfg := sweepConfig(b.opt.seed)
	dir, err := b.scratch("sweep")
	if err != nil {
		return p, err
	}
	store := filepath.Join(dir, "rstore")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return p, err
	}
	p.results = storeCache(store)
	workers := runtime.GOMAXPROCS(0)
	phase()
	root := tr.begin(0, "bench.pass", "sweep-distrib")
	defer tr.end(root)

	start := time.Now()
	sp := tr.begin(root, "distrib.New", "")
	co, err := distrib.New(distrib.Config{
		Jobs:            sweepJobs(cfg),
		LeaseTTL:        3 * time.Second,
		CheckpointPath:  filepath.Join(dir, "ckpt.mpc1"),
		CheckpointEvery: time.Second,
		Results:         p.results,
	})
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.plan = co.Plan()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	srv := &http.Server{Handler: distrib.Handler(co)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.calls = newTransportStats(workers, tr, root)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &distrib.Worker{
			Name:        fmt.Sprintf("w%d", i),
			Transport:   &timedTransport{inner: distrib.Dial(ln.Addr().String()), stats: p.calls},
			Batch:       2,
			Parallelism: 1,
			Results:     resultcache.New(),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	defer func() {
		// Workers leave on their next lease once the sweep is done; cancel
		// only those still waiting after that.
		left := make(chan struct{})
		go func() { wg.Wait(); close(left) }()
		select {
		case <-left:
		case <-time.After(30 * time.Second):
			cancel()
			<-left
		}
		for _, werr := range errs {
			if werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
				err = werr
			}
		}
	}()

	hs := tr.begin(root, "distrib.handshake", "")
	select {
	case <-p.calls.ready:
	case <-time.After(time.Minute):
		return p, errors.New("workers did not connect within a minute")
	}
	tr.end(hs)
	ready := time.Now()
	p.setup = ready.Sub(start)
	if setupOnly {
		cancel()
		return p, nil
	}
	close(p.calls.start)

	var stopCkpt func() time.Duration
	if tr != nil {
		stopCkpt = timeCheckpoints(b, co, tr, root)
	}
	sp = tr.begin(root, "distrib.Coordinator.Wait", "")
	err = co.Wait(ctx)
	tr.end(sp)
	if stopCkpt != nil {
		p.ckpt = stopCkpt()
	}
	if err != nil {
		return p, err
	}
	sp = tr.begin(root, "distrib.Coordinator.MergeInto", "")
	t0 := time.Now()
	merged := co.MergeInto(p.results)
	p.merge = time.Since(t0)
	tr.end(sp)
	if merged != p.plan.Len() {
		b.check.problemf("merged %d of %d sweep cells", merged, p.plan.Len())
	}
	cfg.Results = p.results
	cfg.Parallelism = workers
	if p.tables, p.render, err = renderTables(cfg, sweepFigures, tr, root); err != nil {
		return p, err
	}
	p.elapsed = time.Since(ready)
	p.calls.stop(p.elapsed)

	p.status = co.Status()
	for i, msg := range co.FailedCells() {
		b.check.problemf("sweep cell %d failed: %s", i, msg)
	}
	return p, nil
}

// timeCheckpoints times a Coordinator.Checkpoint every 250 ms while cells
// complete (the one Wait writes at the end finds nothing new to save).
// The returned stop function waits for the timer and returns the median.
func timeCheckpoints(b *bench, co *distrib.Coordinator, tr *tracer, parent int) func() time.Duration {
	var ckpts []time.Duration
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sp := tr.begin(parent, "distrib.Coordinator.Checkpoint", "")
				t0 := time.Now()
				if err := co.Checkpoint(); err != nil {
					b.check.problemf("checkpoint: %v", err)
				}
				ckpts = append(ckpts, time.Since(t0))
				tr.end(sp)
			}
		}
	}()
	return func() time.Duration {
		close(stop)
		<-done
		return median(ckpts)
	}
}

// renderTables renders experiments from a warmed result cache, as the
// coordinator's render pass does.
func renderTables(cfg exp.Config, ids []string, tr *tracer, parent int) (map[string]renderedTable, time.Duration, error) {
	tables := map[string]renderedTable{}
	var render time.Duration
	for _, id := range ids {
		sp := tr.begin(parent, "exp.Experiment", id)
		t, err := cfg.Experiment(id)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", id, err)
		}
		sp = tr.begin(parent, "report.Table.render", id)
		t0 := time.Now()
		tables[id] = renderedTable{t.String(), t.CSV()}
		render += time.Since(t0)
		tr.end(sp)
	}
	return tables, render, nil
}

// runSweepDistrib is the only workload that runs internal/distrib:
// leases, frame verification, MPC1 checkpoints and the merge. Set-up per
// pass covers the coordinator (BuildPlan), the listener and every
// worker's handshake; the timed part runs through Wait, MergeInto and
// rendering. Its tables must equal paper-quick's byte for byte.
func runSweepDistrib(b *bench) error {
	var setups, passes []time.Duration
	var want map[string]renderedTable // paper-quick's tables off the default seed
	onePass := func(tr *tracer) (sweepPass, error) {
		p, err := runSweepPass(b, tr, false)
		if err != nil {
			return p, err
		}
		setups = append(setups, p.setup)
		passes = append(passes, p.elapsed)
		for i := 0; i < p.plan.Len(); i++ {
			b.check.cachedCell(p.results, p.plan.Key(i))
		}
		for id, t := range p.tables {
			b.check.table(id, t.text, t.csv)
			if want != nil && want[id] != t {
				b.check.problemf("sweep %s table differs from paper-quick's", id)
			}
		}
		return p, nil
	}
	if b.check.ref == nil {
		// Without reference digests, compare with paper-quick's tables
		// computed here, through the plain experiment path.
		var err error
		want = map[string]renderedTable{}
		for _, id := range sweepFigures {
			cfg := quickConfig(id, b.opt.seed)
			cfg.Parallelism = runtime.GOMAXPROCS(0)
			cfg.Results = resultcache.New()
			var one map[string]renderedTable
			if one, _, err = renderTables(cfg, []string{id}, nil, 0); err != nil {
				return err
			}
			want[id] = one[id]
		}
	}

	if b.tr != nil {
		base, err := onePass(nil)
		if err != nil {
			return err
		}
		traced, err := onePass(b.tr)
		if err != nil {
			return err
		}
		b.set("bench.tracing_overhead_frac", overhead(base.elapsed, traced.elapsed))
		setSweepLayers(b, traced)
		return measureQuickLayers(b)
	}

	// Set-up is short: measure it apart from the passes too.
	for i := 3; i < b.setupReps(15); i++ {
		p, err := runSweepPass(b, nil, true)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup)
	}
	deadline := time.Now().Add(seconds(b.opt.seconds))
	var cells int
	for b.morePasses(len(passes), deadline) {
		p, err := onePass(nil)
		if err != nil {
			return err
		}
		cells = p.plan.Len()
		b.infof("pass %d: setup %.3fs, sweep %.3fs, %s", len(passes), p.setup.Seconds(), p.elapsed.Seconds(), p.status.ProgressLine())
	}
	setRates(b, cells, quickRequests, passes)
	b.set("setup_s", median(setups).Seconds())
	b.infof("setup_s median of %d set-ups; cells_per_s over the median of %d passes of %d cells", len(setups), len(passes), cells)
	return nil
}

func setSweepLayers(b *bench, p sweepPass) {
	t0 := time.Now()
	sp := b.tr.begin(0, "exp.BuildPlan", "sweep")
	_, err := exp.BuildPlan(sweepJobs(sweepConfig(b.opt.seed)))
	b.tr.end(sp)
	if err != nil {
		b.check.problemf("BuildPlan: %v", err)
	}
	b.set("distrib.plan_ms", ms(time.Since(t0)))
	b.set("distrib.checkpoint_ms", ms(p.ckpt))
	b.set("distrib.merge_ms", ms(p.merge))
	b.set("distrib.lease_us", p.calls.meanUS("lease"))
	b.set("distrib.renew_us", p.calls.meanUS("renew"))
	b.set("distrib.complete_us", p.calls.meanUS("complete"))
	b.set("distrib.idle_frac", p.calls.idleFrac())
	b.set("distrib.requeued", float64(p.status.Expired))
	b.set("distrib.duplicates", float64(p.status.Duplicates))
	b.set("distrib.rejected", float64(p.status.Rejected))
	b.set("report.render_us", us(p.render))
	setCacheStats(b, p.results.Stats())
}

// transportStats times the workers' protocol calls, and holds every
// worker's first lease request until all have fetched the plan, so the
// sweep starts with the whole pool connected.
type transportStats struct {
	tr     *tracer
	parent int

	mu      sync.Mutex
	waiting int
	ready   chan struct{} // closed once every worker has asked for a lease
	start   chan struct{} // closed to let the workers' leases through
	calls   map[string][]time.Duration
	busy    time.Duration // Σ over leases of grant → completion
	wall    time.Duration
	workers int
}

func newTransportStats(workers int, tr *tracer, parent int) *transportStats {
	return &transportStats{tr: tr, parent: parent, waiting: workers, workers: workers,
		ready: make(chan struct{}), start: make(chan struct{}), calls: map[string][]time.Duration{}}
}

func (s *transportStats) record(call string, d time.Duration) {
	s.mu.Lock()
	s.calls[call] = append(s.calls[call], d)
	s.mu.Unlock()
}

func (s *transportStats) stop(wall time.Duration) {
	s.mu.Lock()
	s.wall = wall
	s.mu.Unlock()
}

func (s *transportStats) meanUS(call string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := s.calls[call]
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

func (s *transportStats) idleFrac() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wall <= 0 {
		return 0
	}
	return 1 - s.busy.Seconds()/(s.wall.Seconds()*float64(s.workers))
}

// timedTransport wraps one worker's transport.
type timedTransport struct {
	inner   distrib.Transport
	stats   *transportStats
	started bool      // the worker has asked for its first lease
	granted time.Time // when the outstanding lease was granted
}

func (t *timedTransport) Spec(ctx context.Context) (distrib.SpecResponse, error) {
	sp := t.stats.tr.begin(t.stats.parent, "distrib.Spec", "")
	defer t.stats.tr.end(sp)
	return t.inner.Spec(ctx)
}

func (t *timedTransport) Lease(ctx context.Context, req distrib.LeaseRequest) (distrib.LeaseResponse, error) {
	if !t.started {
		t.started = true
		t.stats.mu.Lock()
		t.stats.waiting--
		if t.stats.waiting == 0 {
			close(t.stats.ready)
		}
		t.stats.mu.Unlock()
		select {
		case <-t.stats.start:
		case <-ctx.Done():
			return distrib.LeaseResponse{}, ctx.Err()
		}
	}
	sp := t.stats.tr.begin(t.stats.parent, "distrib.Lease", req.Worker)
	t0 := time.Now()
	resp, err := t.inner.Lease(ctx, req)
	t.stats.record("lease", time.Since(t0))
	t.stats.tr.end(sp)
	if err == nil && resp.LeaseID != "" {
		t.granted = time.Now()
	}
	return resp, err
}

func (t *timedTransport) Renew(ctx context.Context, req distrib.RenewRequest) (distrib.RenewResponse, error) {
	sp := t.stats.tr.begin(t.stats.parent, "distrib.Renew", "")
	t0 := time.Now()
	resp, err := t.inner.Renew(ctx, req)
	t.stats.record("renew", time.Since(t0))
	t.stats.tr.end(sp)
	return resp, err
}

func (t *timedTransport) Complete(ctx context.Context, req distrib.CompleteRequest) (distrib.CompleteResponse, error) {
	sp := t.stats.tr.begin(t.stats.parent, "distrib.Complete", req.Worker)
	t0 := time.Now()
	resp, err := t.inner.Complete(ctx, req)
	done := time.Now()
	t.stats.record("complete", done.Sub(t0))
	t.stats.tr.end(sp)
	if err == nil && !t.granted.IsZero() {
		t.stats.mu.Lock()
		t.stats.busy += done.Sub(t.granted)
		t.stats.mu.Unlock()
		t.granted = time.Time{}
	}
	return resp, err
}

// setRates reports cells_per_s and sim_mreq_per_s from the median pass.
func setRates(b *bench, cells, requests int, passes []time.Duration) {
	m := median(passes).Seconds()
	b.set("cells_per_s", float64(cells)/m)
	b.set("sim_mreq_per_s", float64(cells)*float64(requests)/m/1e6)
}
