// Package exp implements the paper's evaluation: one function per table
// and figure of §3 and §6, each returning a report.Table that regenerates
// the published rows/series from this repository's simulator.
//
// Absolute numbers differ from the paper (the substrate is our simulator
// and synthetic traces, not the authors' Ramulator + SPEC setup); the
// shapes — who wins, by roughly what factor, where crossovers fall — are
// the reproduction target. EXPERIMENTS.md records paper-vs-measured for
// every experiment.
package exp

import (
	"fmt"
	"strconv"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Config scales the experiments. The zero value is not usable; start from
// DefaultConfig (full runs, ~minutes each on one core) or QuickConfig
// (seconds, for tests and benchmarks).
type Config struct {
	// Requests is the trace length per workload.
	Requests int
	// Seed makes every trace deterministic.
	Seed int64
	// Workloads is the evaluated set (default: the paper's 27).
	Workloads []workload.Workload

	// FastSpec/SlowSpec name the memory specs (dram.Preset names) the
	// baseline experiments run on; empty selects the paper pair
	// (HBM + DDR4-1600). Fig10 ignores them — it is defined as the
	// future-technology pair. Unknown names surface as an error from the
	// experiment that resolved them, tagged with the experiment's name.
	FastSpec string
	SlowSpec string

	// HMAInterval/HMASortStall/HMAMaxMigrations scale HMA to the trace
	// length. The paper's 100 ms / 7 ms cannot fire even once inside a
	// trace shorter than 100 ms of simulated time, so the default keeps
	// the paper's 2000:1 interval ratio directionally (200:1) and its 7%
	// sort duty cycle. See EXPERIMENTS.md ("HMA scaling").
	HMAInterval      clock.Duration
	HMASortStall     clock.Duration
	HMAMaxMigrations int

	// Parallelism bounds how many simulation cells run concurrently in
	// matrix experiments (Figures 6–10, the ablations, the oracle study).
	// Zero selects GOMAXPROCS; one forces serial execution. Results are
	// identical for any value: cells are fully independent (Config.run
	// builds a fresh memsys/backend/engine per cell) and are assembled in
	// a fixed order by internal/runner.
	Parallelism int
	// Progress, when non-nil, is invoked after each simulation cell of a
	// matrix completes, with the count done so far and the matrix total.
	// Invocations are serialized across workers.
	Progress func(done, total int)

	// Traces, when non-nil, is the snapshot cache matrix and oracle runs
	// acquire their generated traces from; nil makes each run create a
	// transient cache of its own. Sharing one cache across sequential runs
	// aggregates its statistics (tests use this to assert the residency
	// bound); it does not retain snapshots between runs — every batch
	// declares exact use counts and frees each snapshot at its last use.
	Traces *tracecache.Cache
	// TraceDir, when non-empty, enables the snapshot disk store
	// (tracecache.Cache.SetDir) for runs that create their own transient
	// cache: generated traces persist there as MPS1 files and reload on
	// later runs instead of being regenerated. Ignored when Traces is set
	// (configure the shared cache directly in that case). No command sets
	// it; BenchmarkMatrix does.
	TraceDir string

	// Results, when non-nil, is the content-addressed result cache matrix
	// and oracle runs consult before simulating a cell (and publish fresh
	// cells to). Cells are keyed by their complete causal identity — see
	// resultcache.CellKey — so any cache state produces field-identical
	// results to a cache-less run; only the work changes. Sharing one cache
	// across sequential experiments dedupes their overlapping design points
	// (Fig6 and Fig7 share MemPod configurations, Fig8 and the energy table
	// share entire matrices). Nil with an empty ResultDir disables result
	// caching entirely.
	Results *resultcache.Cache
	// ResultDir, when non-empty, enables the result disk store
	// (resultcache.Cache.SetDir) for runs that create their own transient
	// cache: cell results persist there as MPR1 files and short-circuit
	// later processes' matching cells. Ignored when Results is set
	// (configure the shared cache directly in that case).
	ResultDir string
}

// DefaultConfig returns the full-evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Requests:         2_000_000,
		Seed:             42,
		Workloads:        workload.All(),
		HMAInterval:      10 * clock.Millisecond,
		HMASortStall:     700 * clock.Microsecond,
		HMAMaxMigrations: 4096,
	}
}

// QuickConfig returns a reduced configuration for tests and benchmarks:
// a handful of representative workloads and short traces. Shapes are
// noisier but the machinery is identical.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Requests = 150_000
	c.HMAInterval = clock.Millisecond
	c.HMASortStall = 70 * clock.Microsecond
	c.HMAMaxMigrations = 1024
	c.Workloads = selectWorkloads("cactus", "bwaves", "xalanc", "mix5")
	return c
}

// WithWorkloads returns a copy of the config restricted to the named
// workloads (benchmark names or "mixN"). It panics on unknown names.
func (c Config) WithWorkloads(names ...string) Config {
	c.Workloads = selectWorkloads(names...)
	return c
}

// selectWorkloads resolves workload names (benchmark names or "mixN").
// It panics on unknown names; resolveWorkloads is the error-returning form
// distributed workers use on untrusted specs.
func selectWorkloads(names ...string) []workload.Workload {
	out, err := resolveWorkloads(names)
	if err != nil {
		panic(err)
	}
	return out
}

func resolveWorkloads(names []string) ([]workload.Workload, error) {
	var out []workload.Workload
	for _, n := range names {
		var w workload.Workload
		var err error
		if len(n) > 3 && n[:3] == "mix" {
			i, perr := strconv.Atoi(n[3:])
			if perr != nil {
				return nil, fmt.Errorf("exp: bad workload name %q: %w", n, perr)
			}
			w, err = workload.Mix(i)
		} else {
			w, err = workload.Homogeneous(n)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: workload %q: %w", n, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// specPair resolves the config's named memory specs through the dram
// preset registry, defaulting to the paper pair. experiment tags the
// error so a bad -fast/-slow name names the figure that tripped on it
// (the registry error itself lists the valid options).
func (c Config) specPair(experiment string) (fast, slow dram.Spec, err error) {
	fastName, slowName := c.FastSpec, c.SlowSpec
	if fastName == "" {
		fastName = "HBM"
	}
	if slowName == "" {
		slowName = "DDR4-1600"
	}
	if fast, err = dram.Preset(fastName); err != nil {
		return fast, slow, fmt.Errorf("exp: %s: fast spec: %w", experiment, err)
	}
	if slow, err = dram.Preset(slowName); err != nil {
		return fast, slow, fmt.Errorf("exp: %s: slow spec: %w", experiment, err)
	}
	return fast, slow, nil
}

// builder constructs a mechanism and the memory system it runs on.
//
// name is the display label results carry (and may differ between
// experiments for one mechanism — Fig6 numbers its grid points, Fig10
// renames HBM-only); ckey is the mechanism's canonical identity for the
// result cache (resultcache.MechID of the config struct that
// parameterizes it), so equal design points hit one another's cache
// entries whatever an experiment labels them.
type builder struct {
	name   string
	ckey   string
	layout addr.Layout
	fast   dram.Spec
	slow   dram.Spec
	make   func(b *mech.Backend) mech.Mechanism
}

// Standard layouts and specs of the evaluation.
func stdLayout() addr.Layout { return addr.DefaultLayout() }

func hbmOnlyLayout() addr.Layout {
	return addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
}

func ddrOnlyLayout() addr.Layout {
	return addr.Layout{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4}
}

// baselineBuilders returns the Figure 8 configurations over the given
// memory specs: no-migration TLM, the four mechanisms, and HBM-only.
func (c Config) baselineBuilders(fast, slow dram.Spec) []builder {
	return []builder{
		{"TLM", resultcache.MechID("static", nil), stdLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return mech.NewStatic("TLM", b)
		}},
		{"MemPod", resultcache.MechID("mempod", core.DefaultConfig()), stdLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return core.MustNew(core.DefaultConfig(), b)
		}},
		{"HMA", resultcache.MechID("hma", c.hmaConfig()), stdLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return hma.MustNew(c.hmaConfig(), b)
		}},
		{"THM", resultcache.MechID("thm", thm.DefaultConfig()), stdLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return thm.MustNew(thm.DefaultConfig(), b)
		}},
		{"CAMEO", resultcache.MechID("cameo", cameo.DefaultConfig()), stdLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return cameo.MustNew(cameo.DefaultConfig(), b)
		}},
		{"HBM-only", resultcache.MechID("static", nil), hbmOnlyLayout(), fast, slow, func(b *mech.Backend) mech.Mechanism {
			return mech.NewStatic("HBM-only", b)
		}},
	}
}

func (c Config) hmaConfig() hma.Config {
	cfg := hma.DefaultConfig()
	cfg.Interval = c.HMAInterval
	cfg.SortStall = c.HMASortStall
	cfg.MaxMigrations = c.HMAMaxMigrations
	return cfg
}

// traceCache returns the config's shared snapshot cache, or a transient
// one for this run.
func (c Config) traceCache() *tracecache.Cache {
	if c.Traces != nil {
		return c.Traces
	}
	t := tracecache.New()
	if c.TraceDir != "" {
		t.SetDir(c.TraceDir)
	}
	return t
}

// resultCache returns the config's shared result cache, a transient
// disk-backed one when only ResultDir is set, or nil when result caching
// is disabled.
func (c Config) resultCache() *resultcache.Cache {
	if c.Results != nil {
		return c.Results
	}
	if c.ResultDir == "" {
		return nil
	}
	r := resultcache.New()
	r.SetDir(c.ResultDir)
	return r
}

// cellKeys returns the complete causal identity of every (workload,
// builder) simulation cell under this config, workload-major like the
// matrix's task order: engine version, canonical mechanism config, both
// memory-spec fingerprints, layout geometry, and the exact generated
// trace (workload recipe name + length + seed). Anything that could change
// a cell's numbers is in here; execution shape (Parallelism) deliberately
// is not — cells are isolated, so it cannot change a result. The builder
// half of the key (spec fingerprints, layout print) is rendered once per
// builder, not once per cell.
func (c Config) cellKeys(builders []builder) []resultcache.CellKey {
	machine := make([]resultcache.CellKey, len(builders))
	for i, b := range builders {
		machine[i] = resultcache.MachineKey(sim.Version, b.ckey, b.layout, b.fast, b.slow)
		machine[i].Requests, machine[i].Seed = c.Requests, c.Seed
	}
	keys := make([]resultcache.CellKey, 0, len(c.Workloads)*len(builders))
	for _, w := range c.Workloads {
		for _, k := range machine {
			k.Workload = w.Name
			keys = append(keys, k)
		}
	}
	return keys
}

// traceKey identifies w's generated trace under this config. Workload
// names uniquely identify recipes in the evaluated set, so the name (with
// the length and seed) pins the exact request sequence.
func (c Config) traceKey(w workload.Workload) tracecache.Key {
	return tracecache.Key{Workload: w.Name, Requests: c.Requests, Seed: c.Seed}
}

// acquireTrace borrows w's packed trace snapshot from the cache,
// generating and recording it on first use. uses is the total acquisition
// count the batch declared for this key.
func (c Config) acquireTrace(traces *tracecache.Cache, w workload.Workload, uses int) (*trace.Snapshot, func(), error) {
	return traces.Acquire(c.traceKey(w), uses, func() (*trace.Snapshot, error) {
		s, err := w.Stream(c.Requests, c.Seed)
		if err != nil {
			return nil, err
		}
		return trace.Record(s, c.Requests), nil
	})
}

// run executes one (workload, builder) cell, consulting the result cache
// under the cell's key when one is configured. The cached path returns
// without touching the trace cache at all (cached cells are excluded from
// trace use counts by matrix's probe pass); the display name is applied
// after the cache consult, because one cached cell can serve under different labels
// (Fig6's "MemPod#7" and Fig7's "MemPod#3" may be the same design point).
func (c Config) run(w workload.Workload, b builder, key resultcache.CellKey, traces *tracecache.Cache, uses int, results *resultcache.Cache) (stats.Result, error) {
	simulate := func() (stats.Result, error) {
		return c.simulate(w, b, traces, uses)
	}
	var res stats.Result
	var err error
	if results != nil {
		res, err = results.ResultCell(key, simulate)
	} else {
		res, err = simulate()
	}
	if err != nil {
		return stats.Result{}, err
	}
	res.Mechanism = b.name
	return res, nil
}

// simulate computes one (workload, builder) cell. Every piece of mutable
// state — memory system, backend, mechanism, engine, replay cursor — is
// constructed here, inside the cell; cells share only the read-only Config
// and builder values plus the recorded trace snapshot, which is immutable
// after capture (each cell replays it through its own cursor). That
// isolation is what makes matrix safe to fan out across goroutines
// (asserted by TestMatrixParallelDeterminism and the race detector in CI).
func (c Config) simulate(w workload.Workload, b builder, traces *tracecache.Cache, uses int) (stats.Result, error) {
	snap, release, err := c.acquireTrace(traces, w, uses)
	if err != nil {
		return stats.Result{}, err
	}
	defer release()
	sys, err := memsys.New(b.layout, b.fast, b.slow)
	if err != nil {
		return stats.Result{}, err
	}
	backend := mech.NewBackend(sys)
	m := b.make(backend)
	// Recycle the mechanism's large tables into the shared pools once the
	// run's stats are extracted; successive cells then reuse one another's
	// allocations instead of paying fresh multi-MB zeroing per cell.
	defer mech.Release(m)
	engine := sim.New(backend, m)
	// Replay through the snapshot's predecode plane for this cell's layout:
	// the plane is computed once per (snapshot, layout) and shared by every
	// cell replaying it, so the matrix decodes each trace once, not once per
	// mechanism (see trace.Snapshot.Plane).
	return engine.Run(w.Name, snap.DecodedStream(&backend.Geom))
}

// matrix runs every workload under every builder on c.Parallelism workers
// and returns results[builderName][workloadName]. Cell failures never
// abort the grid: every cell is attempted, completed cells are always
// returned, and the error joins every cell failure (keyed
// "builder/workload") via errors.Join. Failed cells are absent from the
// returned maps. For a fixed Seed the result is bit-identical for any
// Parallelism; see Config.run for the per-cell isolation that guarantees
// it.
//
// Each workload's trace is generated once and replayed from a packed
// snapshot by every builder's cell. Tasks are submitted workload-major
// (all builders of workload 0, then workload 1, …) so the cells sharing a
// snapshot are adjacent in the queue: since the worker pool starts tasks
// in submission order and a snapshot stays resident only from its
// workload's first started cell to its last released one, at most
// Parallelism+1 snapshots are ever resident, however many workloads the
// matrix spans (asserted by TestMatrixSnapshotResidencyBounded).
func (c Config) matrix(builders []builder) (map[string]map[string]stats.Result, error) {
	traces := c.traceCache()
	results := c.resultCache()
	// Trace snapshots are use-counted exactly, so the count must cover the
	// cells that will actually simulate: probe the result cache for every
	// cell first (a successful probe pins the entry resident, guaranteeing
	// the later lookup hits without re-reading the store) and count one
	// trace use per distinct missing cell key. Duplicate keys inside one
	// matrix collapse to a single use — the cache runs them single-flight,
	// so only the first acquires the trace. Each cell's key is built once,
	// here, and handed to the cell's task.
	keys := c.cellKeys(builders)
	uses := make(map[tracecache.Key]int, len(c.Workloads))
	probing := make(map[resultcache.CellKey]bool)
	for i, key := range keys {
		if results != nil {
			if probing[key] || results.Probe(key) {
				continue
			}
			probing[key] = true
		}
		uses[c.traceKey(c.Workloads[i/len(builders)])]++
	}
	tasks := make([]runner.Task[stats.Result], 0, len(builders)*len(c.Workloads))
	for wi, w := range c.Workloads {
		for bi, b := range builders {
			key := keys[wi*len(builders)+bi]
			tasks = append(tasks, runner.Task[stats.Result]{
				Key: b.name + "/" + w.Name,
				// CPU profiles of a sweep attribute samples per cell:
				// `go tool pprof -tagfocus mechanism=MemPod` (or
				// workload=mix3) isolates one cell's share.
				Labels: []string{"mechanism", b.name, "workload", w.Name},
				Run: func() (stats.Result, error) {
					return c.run(w, b, key, traces, uses[c.traceKey(w)], results)
				},
			})
		}
	}
	cells, err := runner.Run(tasks, runner.Options{
		Parallelism: c.Parallelism,
		OnProgress:  c.Progress,
	})
	out := make(map[string]map[string]stats.Result, len(builders))
	for bi, b := range builders {
		out[b.name] = make(map[string]stats.Result, len(c.Workloads))
		for wi, w := range c.Workloads {
			if cell := cells[wi*len(builders)+bi]; cell.Err == nil {
				out[b.name][w.Name] = cell.Value
			}
		}
	}
	if err != nil {
		return out, fmt.Errorf("exp: %w", err)
	}
	return out, nil
}

// averages splits results into homogeneous, mixed and overall means of a
// metric.
func (c Config) averages(rs map[string]stats.Result, f func(stats.Result) float64) (hg, mix, all float64) {
	var hgSum, mixSum float64
	var hgN, mixN int
	for _, w := range c.Workloads {
		v := f(rs[w.Name])
		if w.Homogeneous {
			hgSum += v
			hgN++
		} else {
			mixSum += v
			mixN++
		}
	}
	if hgN > 0 {
		hg = hgSum / float64(hgN)
	}
	if mixN > 0 {
		mix = mixSum / float64(mixN)
	}
	if hgN+mixN > 0 {
		all = (hgSum + mixSum) / float64(hgN+mixN)
	}
	return hg, mix, all
}
