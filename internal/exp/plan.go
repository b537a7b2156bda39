// Plan/run split for distributed sweeps: a Plan enumerates the simulation
// cells an experiment set would run — as resultcache.CellKeys plus the
// closures that compute their payloads — without executing any of them.
// A coordinator enumerates a Plan to hand out cell indices; workers build
// the identical Plan from the same serialized Jobs (the enumeration is
// deterministic, attested by Fingerprint) and execute leased index
// batches through the same runner pool and result cache the serial path
// uses. Because every cell is content-addressed, the distributed results
// merge into a cache from which the experiment tables render byte-
// identically to a serial run.
package exp

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/clock"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tracecache"
)

// Params is the serializable subset of Config that determines cell
// identity: everything a distributed worker needs to rebuild a plan
// bit-identically, and nothing about execution shape (parallelism, pod
// shards and caches stay per-process).
type Params struct {
	Requests  int      `json:"requests"`
	Seed      int64    `json:"seed"`
	Workloads []string `json:"workloads"`

	FastSpec string `json:"fast_spec,omitempty"`
	SlowSpec string `json:"slow_spec,omitempty"`

	// HMA scaling, in femtoseconds (clock.Duration's unit).
	HMAIntervalFs    int64 `json:"hma_interval_fs"`
	HMASortStallFs   int64 `json:"hma_sort_stall_fs"`
	HMAMaxMigrations int   `json:"hma_max_migrations"`
}

// Params extracts the config's cell-identity parameters.
func (c Config) Params() Params {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return Params{
		Requests:         c.Requests,
		Seed:             c.Seed,
		Workloads:        names,
		FastSpec:         c.FastSpec,
		SlowSpec:         c.SlowSpec,
		HMAIntervalFs:    int64(c.HMAInterval),
		HMASortStallFs:   int64(c.HMASortStall),
		HMAMaxMigrations: c.HMAMaxMigrations,
	}
}

// Config reconstructs the experiment configuration the parameters came
// from. Unknown workload names error (a distributed spec is untrusted
// input); execution-shape fields are left zero for the caller to set.
func (p Params) Config() (Config, error) {
	ws, err := resolveWorkloads(p.Workloads)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Requests:         p.Requests,
		Seed:             p.Seed,
		Workloads:        ws,
		FastSpec:         p.FastSpec,
		SlowSpec:         p.SlowSpec,
		HMAInterval:      clock.Duration(p.HMAIntervalFs),
		HMASortStall:     clock.Duration(p.HMASortStallFs),
		HMAMaxMigrations: p.HMAMaxMigrations,
	}, nil
}

// A Job names one experiment to run under a serializable parameter set.
// A sweep is a list of Jobs; cells shared between jobs (Fig6 and Fig7
// overlap on the paper's chosen design point) are enumerated once.
type Job struct {
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
}

// planCell is one enumerated simulation cell: its content-addressed
// identity, the trace it replays, and the closure computing its payload
// (the bytes GetOrRun would cache — EncodeResult or encodeOracle output).
type planCell struct {
	key     resultcache.CellKey
	tkey    tracecache.Key
	compute func(traces *tracecache.Cache, uses int) ([]byte, error)
}

// Plan is the deduplicated, deterministically ordered cell list of a Job
// set. Equal Jobs always yield equal plans — same cells, same order, same
// Fingerprint — whatever process builds them.
type Plan struct {
	jobs  []Job
	cells []planCell
}

// BuildPlan enumerates the distinct cells of jobs, in job order and, per
// job, in the experiment's matrix submission order (workload-major).
// Cells whose canonical key already appeared are skipped, so overlapping
// experiments plan each design point once, exactly as a shared result
// cache would dedupe them at run time.
func BuildPlan(jobs []Job) (*Plan, error) {
	p := &Plan{jobs: jobs}
	seen := make(map[string]bool)
	for _, job := range jobs {
		cfg, err := job.Params.Config()
		if err != nil {
			return nil, fmt.Errorf("exp: plan %s: %w", job.Experiment, err)
		}
		cells, err := cfg.planCells(job.Experiment)
		if err != nil {
			return nil, fmt.Errorf("exp: plan %s: %w", job.Experiment, err)
		}
		for _, cell := range cells {
			canon := cell.key.Canonical()
			if seen[canon] {
				continue
			}
			seen[canon] = true
			p.cells = append(p.cells, cell)
		}
	}
	return p, nil
}

// Jobs returns the job list the plan was built from.
func (p *Plan) Jobs() []Job { return p.jobs }

// Len returns the number of distinct cells.
func (p *Plan) Len() int { return len(p.cells) }

// Key returns cell i's content-addressed identity.
func (p *Plan) Key(i int) resultcache.CellKey { return p.cells[i].key }

// Fingerprint hashes the ordered canonical keys (FNV-1a). Two processes
// agreeing on a fingerprint agree on every cell's identity and index, so
// a coordinator and a worker can exchange bare indices safely; the keys
// already embed sim.Version, so an engine-semantics skew between builds
// changes the fingerprint too.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "plan1 sim=%d\n", sim.Version)
	for _, cell := range p.cells {
		io.WriteString(h, cell.key.Canonical())
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// planCells enumerates experiment id's cells under this config, in the
// exact submission order the experiment's run path uses. The static
// tables have no cells; the oracle experiments share one cell per
// workload (Fig1–3 render different columns of the same study).
func (c Config) planCells(id string) ([]planCell, error) {
	switch id {
	case "table1", "table2", "table3":
		return nil, nil
	case "fig1", "fig2", "fig3":
		cells := make([]planCell, 0, len(c.Workloads))
		for _, w := range c.Workloads {
			w := w
			cells = append(cells, planCell{
				key:  c.oracleKey(w),
				tkey: c.traceKey(w),
				compute: func(traces *tracecache.Cache, uses int) ([]byte, error) {
					r, err := c.oracleOne(w, traces, uses)
					if err != nil {
						return nil, err
					}
					return encodeOracle(r), nil
				},
			})
		}
		return cells, nil
	}
	builders, err := c.buildersFor(id)
	if err != nil {
		return nil, err
	}
	cells := make([]planCell, 0, len(c.Workloads)*len(builders))
	for _, w := range c.Workloads {
		for _, b := range builders {
			w, b := w, b
			cells = append(cells, planCell{
				key:  c.cellKey(w, b),
				tkey: c.traceKey(w),
				compute: func(traces *tracecache.Cache, uses int) ([]byte, error) {
					r, err := c.simulate(w, b, traces, uses)
					if err != nil {
						return nil, err
					}
					return resultcache.EncodeResult(r), nil
				},
			})
		}
	}
	return cells, nil
}

// buildersFor enumerates the builder grid of a matrix experiment without
// running it — the same helpers the experiments' own render paths call,
// so plan and run cannot drift.
func (c Config) buildersFor(id string) ([]builder, error) {
	switch id {
	case "fig6":
		return c.memPodGridBuilders("fig6", fig6Configs())
	case "fig7":
		return c.memPodGridBuilders("fig7", fig7Configs())
	case "fig8":
		fast, slow, err := c.specPair("fig8")
		if err != nil {
			return nil, err
		}
		return c.baselineBuilders(fast, slow), nil
	case "fig9":
		return c.fig9Builders()
	case "fig10":
		builders, _ := c.fig10Builders()
		return builders, nil
	case "specgrid":
		return c.specGridBuilders()
	case "ablation-pods":
		return c.podSweepBuilders()
	case "ablation-tracker":
		return c.trackerSweepBuilders()
	case "energy":
		fast, slow, err := c.specPair("energy")
		if err != nil {
			return nil, err
		}
		return c.baselineBuilders(fast, slow), nil
	default:
		return nil, fmt.Errorf("exp: experiment %q has no enumerable cells", id)
	}
}

// RunCellsOptions tunes a RunCells batch. All fields are optional.
type RunCellsOptions struct {
	// Results, when non-nil, is consulted before computing each cell and
	// receives fresh payloads — a warm worker answers a whole lease in
	// O(1) disk-free lookups.
	Results *resultcache.Cache
	// Traces, when non-nil, supplies trace snapshots across batches;
	// nil builds a transient cache for this batch only.
	Traces *tracecache.Cache
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// CellRun is the outcome of one requested cell: a complete MPR1 frame
// (resultcache.EncodeFile of the cell's key and payload) or the error
// that prevented it.
type CellRun struct {
	Frame []byte
	Err   error
}

// RunCells executes the cells at the given plan indices on a bounded
// worker pool and returns one CellRun per index, in request order. Trace
// snapshots are use-counted exactly over the batch (cache-resident cells
// excluded, like the matrix's probe pass), so a snapshot is generated
// once per batch and freed at its last use. Cell failures never abort the
// batch; each failed slot carries its own error.
func (p *Plan) RunCells(indices []int, opts RunCellsOptions) []CellRun {
	out := make([]CellRun, len(indices))
	traces := opts.Traces
	if traces == nil {
		traces = tracecache.New()
	}
	results := opts.Results

	uses := make(map[tracecache.Key]int)
	probing := make(map[string]bool)
	for _, i := range indices {
		if i < 0 || i >= len(p.cells) {
			continue
		}
		cell := p.cells[i]
		if results != nil {
			canon := cell.key.Canonical()
			if probing[canon] || results.Probe(cell.key) {
				continue
			}
			probing[canon] = true
		}
		uses[cell.tkey]++
	}

	tasks := make([]runner.Task[[]byte], len(indices))
	for oi, i := range indices {
		oi, i := oi, i
		if i < 0 || i >= len(p.cells) {
			tasks[oi] = runner.Task[[]byte]{Run: func() ([]byte, error) {
				return nil, fmt.Errorf("exp: cell index %d out of plan range [0,%d)", i, len(p.cells))
			}}
			continue
		}
		cell := p.cells[i]
		tasks[oi] = runner.Task[[]byte]{
			Key:    cell.key.Workload,
			Labels: []string{"mechanism", "distrib-cell", "workload", cell.key.Workload},
			Run: func() ([]byte, error) {
				compute := func() ([]byte, error) {
					return cell.compute(traces, uses[cell.tkey])
				}
				if results != nil {
					return results.GetOrRun(cell.key, compute)
				}
				return compute()
			},
		}
	}
	runs, _ := runner.Run(tasks, runner.Options{Parallelism: opts.Parallelism})
	for oi, i := range indices {
		if runs[oi].Err != nil {
			out[oi] = CellRun{Err: runs[oi].Err}
			continue
		}
		out[oi] = CellRun{Frame: resultcache.EncodeFile(p.cells[i].key, runs[oi].Value)}
	}
	return out
}
