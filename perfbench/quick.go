package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/tracecache"
)

// quickRequests is the trace length of every Quick-scale cell.
const quickRequests = 150_000

// quickExperiments lists the experiment ids of the public facade's set,
// in the order cmd/experiments runs them.
func quickExperiments() []string {
	var ids []string
	for _, e := range mempod.Experiments() {
		ids = append(ids, string(e))
	}
	return ids
}

// quickConfig is the configuration cmd/experiments runs experiment id at
// (mempod.RunExperimentOpts at Quick scale), with the run's trace seed —
// which the facade does not expose, hence the exp entry point.
func quickConfig(id string, seed int64) exp.Config {
	cfg := exp.ConfigFor(id, false)
	cfg.Seed = seed
	return cfg
}

// quickPlan enumerates the distinct simulation cells of the experiment
// set: the cells a pass over an empty store must simulate, and the cells
// the output check reads back.
func quickPlan(seed int64, ids []string) (*exp.Plan, error) {
	jobs := make([]exp.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, exp.Job{Experiment: id, Params: quickConfig(id, seed).Params()})
	}
	return exp.BuildPlan(jobs)
}

// storeCache opens a result cache over a store directory, as
// mempod.NewResultCache does.
func storeCache(dir string) *resultcache.Cache {
	rc := resultcache.New()
	rc.SetDir(dir)
	return rc
}

// renderedTable is one experiment's output as the facade returns it.
type renderedTable struct{ text, csv string }

// quickPass is one run of the experiment set against a result cache.
type quickPass struct {
	elapsed time.Duration
	tables  map[string]renderedTable
	results resultcache.Stats
	traces  tracecache.Stats
	// Layer attribution, from the pass's own calls and Progress stamps.
	experiment map[string]time.Duration // Experiment call plus rendering
	assemble   time.Duration            // last Progress callback → Experiment return
	tail       time.Duration            // time with fewer cells left than workers
	render     time.Duration            // Table.String + CSV
}

// runQuickPass runs every experiment at Quick scale on nproc workers, as
// `cmd/experiments -result-cache DIR` does, and renders each table.
func runQuickPass(b *bench, ids []string, rc *resultcache.Cache, tr *tracer) (quickPass, error) {
	p := quickPass{tables: map[string]renderedTable{}, experiment: map[string]time.Duration{}}
	workers := runtime.GOMAXPROCS(0)
	traces := tracecache.New()
	root := tr.begin(0, "bench.pass", b.opt.workload)
	defer tr.end(root)
	start := time.Now()
	for _, id := range ids {
		cfg := quickConfig(id, b.opt.seed)
		cfg.Parallelism = workers
		cfg.Results = rc
		cfg.Traces = traces
		var prog progressLog
		cfg.Progress = prog.note

		sp := tr.begin(root, "exp.Experiment", id)
		t0 := time.Now()
		t, err := cfg.Experiment(id)
		returned := time.Now()
		tr.end(sp)
		if err != nil {
			return p, fmt.Errorf("%s: %w", id, err)
		}
		p.tail += prog.tail(workers)
		if last, ok := prog.last(); ok {
			p.assemble += returned.Sub(last)
		}

		rs := tr.begin(root, "report.Table.render", id)
		r0 := time.Now()
		p.tables[id] = renderedTable{t.String(), t.CSV()}
		p.render += time.Since(r0)
		tr.end(rs)
		p.experiment[id] = time.Since(t0)
	}
	p.elapsed = time.Since(start)
	p.results = rc.Stats()
	p.traces = traces.Stats()
	return p, nil
}

// progressLog timestamps an experiment's Progress callbacks, which exp
// serializes across workers.
type progressLog struct {
	mu     sync.Mutex
	stamps []progressStamp
}

type progressStamp struct {
	at          time.Time
	done, total int
}

func (l *progressLog) note(done, total int) {
	l.mu.Lock()
	l.stamps = append(l.stamps, progressStamp{time.Now(), done, total})
	l.mu.Unlock()
}

func (l *progressLog) last() (time.Time, bool) {
	if len(l.stamps) == 0 {
		return time.Time{}, false
	}
	return l.stamps[len(l.stamps)-1].at, true
}

// tail sums, over the experiment's matrices, the time from the first
// completion that left fewer cells than workers to the matrix's last
// completion: the pool's drain, when workers idle.
func (l *progressLog) tail(workers int) time.Duration {
	var sum time.Duration
	var start time.Time
	for _, s := range l.stamps {
		if start.IsZero() && s.total-s.done < workers {
			start = s.at
		}
		if s.done == s.total {
			if !start.IsZero() {
				sum += s.at.Sub(start)
			}
			start = time.Time{}
		}
	}
	return sum
}

// checkQuickPass checks every cell of the plan through the pass's cache,
// and every table against the reference (or, off the default seed,
// against the first pass of the run).
func checkQuickPass(b *bench, plan *exp.Plan, rc *resultcache.Cache, p quickPass) {
	for i := 0; i < plan.Len(); i++ {
		b.check.cachedCell(rc, plan.Key(i))
	}
	for id, t := range p.tables {
		b.check.table(id, t.text, t.csv)
	}
}

// setQuickLayers reports the layer metrics of a traced experiment-set
// pass.
func setQuickLayers(b *bench, p quickPass) {
	for _, id := range cellExpIDs {
		b.set("exp.experiment_s."+id, p.experiment[id].Seconds())
	}
	b.set("exp.assemble_ms", ms(p.assemble))
	b.set("runner.tail_ms", ms(p.tail))
	b.set("report.render_us", us(p.render))
	b.set("tracecache.generated", float64(p.traces.Generated))
	b.set("tracecache.hits", float64(p.traces.Hits))
	b.set("tracecache.peak_resident", float64(p.traces.Peak))
	setCacheStats(b, p.results)
}

func setCacheStats(b *bench, s resultcache.Stats) {
	b.set("resultcache.hits", float64(s.Hits))
	b.set("resultcache.misses", float64(s.Misses))
	b.set("resultcache.disk_loads", float64(s.DiskLoads))
	b.set("resultcache.stale", float64(s.Stale))
	b.set("resultcache.bytes_read", float64(s.BytesRead))
	b.set("resultcache.bytes_written", float64(s.BytesWritten))
	if n := s.Hits + s.Misses; n > 0 {
		b.set("resultcache.hit_frac", float64(s.Hits)/float64(n))
	}
}

// runPaperQuick is the command people run: every experiment at Quick
// scale into an empty result store, many short cells on a saturated
// worker pool. Set-up: a fresh store directory, its result cache, and
// the plan of the distinct cells a pass must produce.
func runPaperQuick(b *bench) error {
	ids := quickExperiments()
	var setups []time.Duration
	// setup makes a new store directory; its caller removes it, untimed.
	setup := func() (string, *exp.Plan, *resultcache.Cache, error) {
		phase()
		t0 := time.Now()
		store := filepath.Join(b.work, fmt.Sprintf("store%d", len(setups)))
		if err := os.Mkdir(store, 0o755); err != nil {
			return "", nil, nil, err
		}
		rc := storeCache(store)
		plan, err := quickPlan(b.opt.seed, ids)
		setups = append(setups, time.Since(t0))
		return store, plan, rc, err
	}
	// Set-up is short: measure it apart from the passes too.
	for i := 1; i < b.setupReps(15); i++ {
		store, _, _, err := setup()
		if err != nil {
			return err
		}
		if err := os.RemoveAll(store); err != nil {
			return err
		}
	}
	var passes []quickPass
	var plan *exp.Plan
	onePass := func(tr *tracer) (quickPass, error) {
		store, pl, rc, err := setup()
		if err != nil {
			return quickPass{}, err
		}
		plan = pl
		p, err := runQuickPass(b, ids, rc, tr)
		if err != nil {
			return p, err
		}
		passes = append(passes, p)
		checkQuickPass(b, plan, rc, p)
		if p.results.Misses != plan.Len() {
			b.check.problemf("pass simulated %d cells, plan has %d", p.results.Misses, plan.Len())
		}
		return p, os.RemoveAll(store)
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
		setQuickLayers(b, traced)
		b.set("bench.tracing_overhead_frac", overhead(base.elapsed, traced.elapsed))
		b.infof("pass %.3fs untraced, %.3fs traced", base.elapsed.Seconds(), traced.elapsed.Seconds())
		return measureQuickLayers(b)
	}

	deadline := time.Now().Add(seconds(b.opt.seconds))
	for b.morePasses(len(passes), deadline) {
		p, err := onePass(nil)
		if err != nil {
			return err
		}
		b.infof("pass %d: %.3fs, cache %s, traces generated=%d peak=%d", len(passes), p.elapsed.Seconds(), p.results, p.traces.Generated, p.traces.Peak)
	}
	setQuickRates(b, ids, plan.Len(), passes)
	b.set("setup_s", median(setups).Seconds())
	b.infof("setup_s median of %d set-ups", len(setups))
	return nil
}

// runPaperQuickWarm is the cross-process re-run of `-result-cache`: set-up
// runs the experiment set once into a store; each timed pass re-runs it
// with a fresh result cache over that store, so every cell is a store
// read and none simulates.
func runPaperQuickWarm(b *bench) error {
	ids := quickExperiments()
	plan, err := quickPlan(b.opt.seed, ids)
	if err != nil {
		return err
	}
	var store string
	var setups []time.Duration
	var cold quickPass
	for i := 0; i < b.setupReps(3); i++ {
		if store, err = b.scratch("store"); err != nil {
			return err
		}
		phase()
		t0 := time.Now()
		if cold, err = runQuickPass(b, ids, storeCache(store), nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}

	var passes []quickPass
	onePass := func(tr *tracer) (quickPass, error) {
		phase()
		rc := storeCache(store)
		p, err := runQuickPass(b, ids, rc, tr)
		if err != nil {
			return p, err
		}
		passes = append(passes, p)
		checkQuickPass(b, plan, rc, p)
		if p.results.Misses != 0 {
			b.check.problemf("warm pass simulated %d cells, want misses=0", p.results.Misses)
		}
		for id, t := range p.tables {
			if c := cold.tables[id]; t != c {
				b.check.problemf("warm %s table differs from the populating pass", id)
			}
		}
		return p, nil
	}

	if b.tr != nil {
		// Passes are short: compare medians of several untraced and
		// traced ones.
		var base, traced []time.Duration
		var last quickPass
		for i := 0; i < 5; i++ {
			p, err := onePass(nil)
			if err != nil {
				return err
			}
			base = append(base, p.elapsed)
			if last, err = onePass(b.tr); err != nil {
				return err
			}
			traced = append(traced, last.elapsed)
		}
		setQuickLayers(b, last)
		b.set("bench.tracing_overhead_frac", overhead(median(base), median(traced)))
		return measureQuickLayers(b)
	}

	deadline := time.Now().Add(seconds(b.opt.seconds))
	for b.morePasses(len(passes), deadline) {
		if _, err := onePass(nil); err != nil {
			return err
		}
	}
	setQuickRates(b, ids, plan.Len(), passes)
	b.set("setup_s", median(setups).Seconds())
	b.infof("setup_s median of %d populating passes", len(setups))
	return nil
}

// setQuickRates reports cells_per_s and sim_mreq_per_s for the experiment
// set, timed as the sum over experiments of each one's median time across
// the passes (experiment plus rendering): a burst of load from outside
// that slows one experiment of one pass does not move it.
func setQuickRates(b *bench, ids []string, cells int, passes []quickPass) {
	var total time.Duration
	for _, id := range ids {
		ds := make([]time.Duration, len(passes))
		for i, p := range passes {
			ds[i] = p.experiment[id]
		}
		total += median(ds)
	}
	b.set("cells_per_s", float64(cells)/total.Seconds())
	b.set("sim_mreq_per_s", float64(cells)*quickRequests/total.Seconds()/1e6)
	b.infof("cells_per_s: %d cells over %.3fs, the sum of per-experiment medians over %d passes", cells, total.Seconds(), len(passes))
}
