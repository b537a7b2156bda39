package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/trace"
)

// replayWorkload is the workload replay-long records: the paper's mix5,
// at the full-scale cell length of exp.DefaultConfig.
const replayWorkload = "mix5"

// replayOptions are the facade options each replay-long cell runs with:
// the defaults, except that HMA takes exp.DefaultConfig's scaled interval,
// sort stall and migration cap so that it migrates inside the trace.
func replayOptions(m string) mempod.Options {
	o := mempod.Options{Mechanism: mempod.Mechanism(m)}
	if m == "HMA" {
		dc := exp.DefaultConfig()
		o.HMA = mempod.HMAOptions{Interval: dc.HMAInterval, SortStall: dc.HMASortStall, MaxMigrations: dc.HMAMaxMigrations}
	}
	return o
}

// recordedTrace is a trace saved to a snapshot file and opened through
// the facade.
type recordedTrace struct {
	path string
	t    *mempod.Trace
}

// recordTrace generates and records workload's trace, saves it under dir,
// opens it with mempod.OpenTrace, and decodes its predecode plane and
// time column once so their sidecar files sit next to the snapshot (the
// state a user's second open of a saved trace finds).
func recordTrace(dir, workload string, requests int, seed int64) (recordedTrace, error) {
	t, err := mempod.RecordTrace(workload, requests, seed)
	if err != nil {
		return recordedTrace{}, err
	}
	path := filepath.Join(dir, workload+".mps1")
	f, err := os.Create(path)
	if err != nil {
		return recordedTrace{}, err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return recordedTrace{}, fmt.Errorf("save trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return recordedTrace{}, err
	}
	t.Close()

	snap, _, err := trace.OpenMapped(path)
	if err != nil {
		return recordedTrace{}, fmt.Errorf("open trace: %w", err)
	}
	g := standardGeom()
	snap.Plane(&g)
	snap.TimeColumn()
	snap.Release()

	opened, err := mempod.OpenTrace(path)
	if err != nil {
		return recordedTrace{}, fmt.Errorf("open trace: %w", err)
	}
	return recordedTrace{path: path, t: opened}, nil
}

// runReplayLong replays one long recorded trace cell by cell under every
// mechanism with default options: the per-request hot path does nearly
// all the work, each cell runs alone (so MemPod takes the default
// pod-parallel path), and the trace and its plane exceed the host caches.
// Set-up covers generation, record, save, open and the first plane and
// time-column decode.
func runReplayLong(b *bench) error {
	requests := exp.DefaultConfig().Requests
	if b.opt.small {
		requests = 60_000
	}
	var rt recordedTrace
	var setups []time.Duration
	for i := 0; i < b.setupReps(5); i++ {
		if rt.t != nil {
			rt.t.Close()
		}
		dir, err := b.scratch("replay")
		if err != nil {
			return err
		}
		phase()
		t0 := time.Now()
		if rt, err = recordTrace(dir, replayWorkload, requests, b.opt.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	defer rt.t.Close()

	cells := map[string][]time.Duration{}
	cycle := func(tr *tracer) (time.Duration, error) {
		phase()
		root := tr.begin(0, "bench.cycle", replayWorkload)
		defer tr.end(root)
		var total time.Duration
		for _, m := range mechanisms {
			sp := tr.begin(root, "mempod.RunTrace", m)
			t0 := time.Now()
			res, err := mempod.RunTrace(rt.t, replayOptions(m))
			dt := time.Since(t0)
			tr.end(sp)
			b.check.cell("replay", m, resultDigest(res), err)
			if err != nil {
				return 0, err
			}
			cells[m] = append(cells[m], dt)
			total += dt
		}
		return total, nil
	}

	if b.tr != nil {
		base, err := cycle(nil)
		if err != nil {
			return err
		}
		traced, err := cycle(b.tr)
		if err != nil {
			return err
		}
		b.set("bench.tracing_overhead_frac", overhead(base, traced))
		return measureLayers(b, rt, replayWorkload)
	}

	deadline := time.Now().Add(seconds(b.opt.seconds))
	for n := 0; b.morePasses(n, deadline); n++ {
		if _, err := cycle(nil); err != nil {
			return err
		}
	}
	var sum time.Duration
	for _, m := range mechanisms {
		med := median(cells[m])
		sum += med
		b.infof("cell_ms.%s %.1f ms median of %d (min %.1f, max %.1f)", m, ms(med), len(cells[m]), ms(slices.Min(cells[m])), ms(slices.Max(cells[m])))
	}
	n := float64(len(mechanisms))
	b.set("cells_per_s", n/sum.Seconds())
	b.set("sim_mreq_per_s", n*float64(requests)/sum.Seconds()/1e6)
	b.set("setup_s", median(setups).Seconds())
	b.infof("setup_s median of %d; cells_per_s = %d cells over the sum of per-mechanism median cell times", len(setups), len(mechanisms))
	return nil
}
