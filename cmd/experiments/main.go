// Command experiments regenerates the tables and figures of the paper's
// evaluation, and this repository's ablations, and prints them, optionally
// writing per-experiment CSV files.
//
// Usage:
//
//	experiments                  # the paper's set at quick scale (~1 min)
//	experiments -full            # full scale (tens of minutes on one core)
//	experiments -only fig8,fig9  # a subset
//	experiments -only fig6,fig7,ablation-pods,ablation-tracker,energy
//	experiments -only fig1,fig2,fig3 -requests 50000 -workloads mcf,mix9
//	experiments -csvdir out/     # also write CSVs
//	experiments -j 4 -progress   # bound worker count, show cell progress
//	experiments -result-cache d/ # persist cell results, skip them next run
//
// -only takes any experiment id (see exp.ExperimentIDs); the default is
// the paper's set (mempod.Experiments). -requests and -workloads override
// the trace length and the workload set of every selected experiment.
//
// Simulation cells fan out to GOMAXPROCS workers by default (-j bounds
// them; -j 1 forces serial execution). Results are deterministic for a
// fixed seed regardless of -j.
//
// Cell results are memoized in-process by default, so experiments sharing
// design points (Fig6/Fig7, the three oracle figures) simulate each
// distinct cell once; -result-cache DIR persists them across runs and
// -no-result-cache disables memoization entirely. Cached results are
// field-identical to fresh simulation — only the wall time changes.
// Tables go to stdout; per-experiment wall time and cache activity go to
// stderr ("fig8: finished in 1.2s cache hits=162 misses=0 ...").
//
// Distributed mode shards the selected experiments' cells across
// processes:
//
//	experiments -serve :7077 -checkpoint run.mpc1 # coordinator (+local worker)
//	experiments -join host:7077 -result-cache d   # one worker per machine
//
// The coordinator enumerates the cell plan, hands out leased index
// batches (expired leases re-queue automatically), and checkpoints
// completed cells to -checkpoint on an interval and on SIGTERM
// (restarting with the same flags resumes). Once every cell is in, it
// merges them into its result cache and renders the tables through the
// same loop a serial run uses, so stdout is byte-identical to a serial
// run regardless of worker count or crashes. Workers verify they built
// the identical plan before serving, survive coordinator restarts, and
// exit when the run is done; their selection flags are ignored. Progress
// goes to GET /statusz on the serve address.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/profiling"
	"repro/internal/resultcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sel selection
	fs.BoolVar(&sel.full, "full", false, "run at full scale")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. fig8,table1,ablation-pods)")
	fs.IntVar(&sel.requests, "requests", 0, "override every selected experiment's trace length")
	fs.StringVar(&sel.workloads, "workloads", "", "comma-separated workload set overriding every selected experiment's")
	fs.StringVar(&sel.fastSpec, "fast-spec", "", "fast-tier memory spec preset (default HBM; see mempod.Specs)")
	fs.StringVar(&sel.slowSpec, "slow-spec", "", "slow-tier memory spec preset (default DDR4-1600)")
	csvdir := fs.String("csvdir", "", "directory to write per-experiment CSV files")
	parallel := fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	progress := fs.Bool("progress", false, "report per-cell progress on stderr")
	cacheDir := fs.String("result-cache", "", "persist cell results in this directory (reused across runs)")
	noCache := fs.Bool("no-result-cache", false, "disable result memoization entirely")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")

	serveAddr := fs.String("serve", "", "coordinate a distributed run on this address (host:port)")
	joinAddr := fs.String("join", "", "work for the coordinator at this address")
	workerName := fs.String("worker-name", "", "name reported to the coordinator (default host:pid)")
	leaseBatch := fs.Int("lease-batch", 0, "cells per lease (default 16 worker-side, 64 coordinator cap)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease expiry without renewal (coordinator)")
	ckptPath := fs.String("checkpoint", "", "coordinator checkpoint file (resumed if it exists)")
	ckptEvery := fs.Duration("checkpoint-every", 10*time.Second, "checkpoint write interval")
	noLocal := fs.Bool("no-local-worker", false, "serve only; don't compute cells in this process")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serveAddr != "" && *joinAddr != "" {
		return errors.New("-serve and -join are mutually exclusive")
	}
	if *joinAddr != "" {
		results, err := openResultCache(*cacheDir)
		if err != nil {
			return err
		}
		return join(*joinAddr, *workerName, *leaseBatch, *parallel, results, stderr)
	}
	if *noCache && *cacheDir != "" {
		return errors.New("-result-cache and -no-result-cache are mutually exclusive")
	}

	ids, err := selectExperiments(*only)
	if err != nil {
		return err
	}
	// Every selected experiment's config is built, and its names checked,
	// before anything simulates.
	cfgs := make([]exp.Config, len(ids))
	for i, id := range ids {
		if cfgs[i], err = sel.config(id); err != nil {
			return err
		}
	}

	// A distributed run merges its cells into a cache and renders from it,
	// so -serve keeps one even under -no-result-cache.
	var results *resultcache.Cache
	if !*noCache || *serveAddr != "" {
		if results, err = openResultCache(*cacheDir); err != nil {
			return err
		}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
		}
	}()

	if *serveAddr != "" {
		jobs := make([]exp.Job, len(ids))
		for i, id := range ids {
			jobs[i] = exp.Job{Experiment: id, Params: cfgs[i].Params()}
		}
		err := serve(jobs, results, serveOptions{
			addr: *serveAddr, parallelism: *parallel,
			leaseTTL: *leaseTTL, maxBatch: *leaseBatch,
			checkpoint: *ckptPath, checkpointEvery: *ckptEvery, localWorker: !*noLocal,
		}, stderr)
		if err != nil {
			return err
		}
	}

	var prev resultcache.Stats
	for i, id := range ids {
		cfg := cfgs[i]
		cfg.Parallelism = *parallel
		cfg.Results = results
		if *progress {
			id := id
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(stderr, "%s: %d/%d cells\n", id, done, total)
			}
		}
		start := time.Now()
		t, err := cfg.Experiment(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(stdout, t)
		// Wall time and cache activity go to stderr so stdout is purely
		// tables (diffable across runs; CI compares cold vs warm output).
		line := fmt.Sprintf("%s: finished in %s", id, time.Since(start).Round(time.Millisecond))
		if results != nil {
			cur := results.Stats()
			line += " cache " + cur.Sub(prev).String()
			prev = cur
		}
		fmt.Fprintln(stderr, line)
		if *csvdir != "" {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvdir, id+".csv"), []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if results != nil {
		fmt.Fprintf(stderr, "experiments: result cache total %s\n", results.Stats())
	}
	return nil
}

// selection holds the flags that decide what each experiment simulates.
type selection struct {
	full               bool
	requests           int
	workloads          string
	fastSpec, slowSpec string
}

// config returns the configuration experiment id runs at: its standard
// config at the selected scale, with the command-line overrides applied.
// The serial render loop and the -serve plan both use it, so they agree
// on every cell's identity.
func (s selection) config(id string) (exp.Config, error) {
	cfg := exp.ConfigFor(id, s.full)
	for _, name := range []string{s.fastSpec, s.slowSpec} {
		if name != "" {
			if _, err := dram.Preset(name); err != nil {
				return exp.Config{}, err
			}
		}
	}
	cfg.FastSpec, cfg.SlowSpec = s.fastSpec, s.slowSpec
	if s.requests > 0 {
		cfg.Requests = s.requests
	}
	if s.workloads != "" {
		named, err := exp.Params{Workloads: strings.Split(s.workloads, ",")}.Config()
		if err != nil {
			return exp.Config{}, err
		}
		cfg.Workloads = named.Workloads
	}
	return cfg, nil
}

// selectExperiments resolves -only into experiment ids in their canonical
// order; empty selects the paper's set. Unknown ids are an error, so a
// typo cannot silently drop a figure.
func selectExperiments(only string) ([]string, error) {
	if only == "" {
		var ids []string
		for _, e := range mempod.Experiments() {
			ids = append(ids, string(e))
		}
		return ids, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	var ids []string
	for _, id := range exp.ExperimentIDs() {
		if want[id] {
			ids = append(ids, id)
			delete(want, id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(exp.ExperimentIDs(), ","))
	}
	if len(ids) == 0 {
		return nil, errors.New("nothing selected")
	}
	return ids, nil
}

// openResultCache returns an in-memory result cache, persisted to dir when
// dir is non-empty.
func openResultCache(dir string) (*resultcache.Cache, error) {
	c := resultcache.New()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("result cache dir: %w", err)
		}
		c.SetDir(dir)
	}
	return c, nil
}
