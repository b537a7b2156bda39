package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/hma"
	"repro/internal/mea"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/migrant"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layerReps is how many times each isolated layer measurement repeats;
// the median is reported.
const layerReps = 3

// prefixCap bounds the requests the generation, merge and record
// measurements drain: their per-request cost does not depend on length.
const prefixCap = 500_000

// measureQuickLayers runs the layer isolation over a Quick-scale mix5
// trace, the cell size of paper-quick and sweep-distrib.
func measureQuickLayers(b *bench) error {
	dir, err := b.scratch("layers")
	if err != nil {
		return err
	}
	rt, err := recordTrace(dir, replayWorkload, quickRequests, b.opt.seed)
	if err != nil {
		return err
	}
	defer rt.t.Close()
	return measureLayers(b, rt, replayWorkload)
}

// standardGeom is the address geometry of the standard two-level system
// every mechanism of the comparison runs on.
func standardGeom() addr.Geom { return newSystem().Layout().Geom() }

func newSystem() *memsys.System {
	return memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600())
}

// buildMechanism constructs mechanism m over a fresh memory system, with
// the configuration replay-long's facade cells use.
func buildMechanism(m string) (*mech.Backend, mech.Mechanism, error) {
	be := mech.NewBackend(newSystem())
	var mm mech.Mechanism
	var err error
	switch m {
	case "MemPod":
		mm, err = asMech(core.New(core.DefaultConfig(), be))
	case "HMA":
		c, dc := hma.DefaultConfig(), exp.DefaultConfig()
		c.Interval, c.SortStall, c.MaxMigrations = dc.HMAInterval, dc.HMASortStall, dc.HMAMaxMigrations
		mm, err = asMech(hma.New(c, be))
	case "THM":
		mm, err = asMech(thm.New(thm.DefaultConfig(), be))
	case "CAMEO":
		mm, err = asMech(cameo.New(cameo.DefaultConfig(), be))
	case "Migrant":
		mm, err = asMech(migrant.New(migrant.DefaultConfig(), be))
	case "TLM":
		mm = mech.NewStatic("TLM", be)
	default:
		err = fmt.Errorf("unknown mechanism %q", m)
	}
	return be, mm, err
}

func asMech[M mech.Mechanism](m M, err error) (mech.Mechanism, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// measure times f layerReps times, each under its own span, and returns
// the median duration.
func (b *bench) measure(parent int, name, arg string, f func()) time.Duration {
	ds := make([]time.Duration, layerReps)
	for i := range ds {
		sp := b.tr.begin(parent, name, arg)
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
		b.tr.end(sp)
	}
	return median(ds)
}

// measureLayers times each layer of a cell in isolation over one recorded
// trace, by calling the layer's public functions directly, and reports
// the per-layer metrics. rt is the trace as the facade opened it; the
// layer calls run on a heap copy read back from its file.
func measureLayers(b *bench, rt recordedTrace, workloadName string) error {
	root := b.tr.begin(0, "bench.layers", workloadName)
	defer b.tr.end(root)

	f, err := os.Open(rt.path)
	if err != nil {
		return err
	}
	snap, _, err := trace.ReadSnapshot(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	defer snap.Release()
	n := snap.Len()
	perReq := func(d time.Duration, count int) float64 { return float64(d.Nanoseconds()) / float64(count) }

	if err := measureTraceLayers(b, root, snap, workloadName, rt.path); err != nil {
		return err
	}

	g := standardGeom()
	plane, times := snap.Plane(&g), snap.TimeColumn()
	writes := make([]bool, n)
	st := snap.Stream()
	var r trace.Request
	for i := 0; st.Next(&r); i++ {
		writes[i] = r.Write
	}

	// Replay: drain the decoded cursor span by span, reading the columns
	// the engine reads.
	var sink uint64
	replay := b.measure(root, "trace.SnapshotStream.NextSpan", "", func() {
		ss := snap.DecodedStream(&g)
		for sp := ss.NextSpan(sim.BatchSize); sp.Len() > 0; sp = ss.NextSpan(sim.BatchSize) {
			for i := range sp.Times {
				sink += uint64(sp.Times[i]) + sp.Dec[i].Page
				if sp.Write(i) {
					sink++
				}
			}
		}
	})
	b.set("trace.replay_ns_per_req", perReq(replay, n))

	// DRAM: the batch kernel over per-channel columns of the requests'
	// home locations, and the per-request Access on the same stream.
	sys := newSystem()
	cols := make([][]dram.BatchReq, sys.NumChannels())
	for i, d := range plane {
		cols[d.Chan] = append(cols[d.Chan], dram.BatchReq{Row: uint64(d.Row), At: times[i], Idx: int32(i), Write: writes[i]})
	}
	done := make([]clock.Time, n)
	kernel := b.measure(root, "memsys.System.AccessChannelBatch", "", func() {
		sys := newSystem()
		for ch, col := range cols {
			sys.AccessChannelBatch(ch, col, done)
		}
	})
	b.set("dram.kernel_ns_per_access", perReq(kernel, n))
	access := b.measure(root, "memsys.System.Access", "", func() {
		sys := newSystem()
		for i, d := range plane {
			sys.Access(addr.Location{Channel: int(d.Chan), Row: uint64(d.Row)}, writes[i], times[i])
		}
	})
	b.set("dram.access_ns_per_access", perReq(access, n))

	// Stats: the engine's per-span stall accounting over the time column.
	finish := make([]clock.Time, n)
	for i, t := range times {
		finish[i] = t + 100*clock.Nanosecond
	}
	note := b.measure(root, "stats.Accum.NoteColumn", "", func() {
		var acc stats.Accum
		for lo := 0; lo < n; lo += sim.BatchSize {
			hi := min(lo+sim.BatchSize, n)
			acc.NoteColumn(times[lo:hi], finish[lo:hi])
		}
		sink += acc.Requests
	})
	b.set("stats.note_ns_per_req", perReq(note, n))

	// MEA: per-pod observation of every request's page, and the hot-set
	// extraction plus reset at each 50 µs interval boundary.
	interval := core.DefaultConfig().Interval
	var hotTotal time.Duration
	var intervals int
	observe := b.measure(root, "mea.MEA.Observe", "", func() {
		meas := make([]*mea.MEA, addr.DefaultLayout().NumPods)
		for p := range meas {
			meas[p] = mea.NewMEA(core.DefaultConfig().Counters, core.DefaultConfig().CounterBits)
		}
		hotTotal, intervals = 0, 0
		next := clock.Time(interval)
		for i, d := range plane {
			if times[i] >= next {
				t0 := time.Now()
				for _, m := range meas {
					sink += uint64(len(m.Hot()))
					m.Reset()
				}
				hotTotal += time.Since(t0)
				intervals++
				for times[i] >= next {
					next += clock.Time(interval)
				}
			}
			meas[d.Pod].Observe(d.Page)
		}
	})
	hotPerReq := 0.0
	if intervals > 0 {
		b.set("mea.hot_us_per_interval", us(hotTotal)/float64(intervals))
		hotPerReq = perReq(hotTotal, n)
	}
	b.set("mea.observe_ns_per_req", perReq(observe-hotTotal, n))
	fc := b.measure(root, "mea.FullCounters.Observe", "", func() {
		fcs := make([]*mea.FullCounters, addr.DefaultLayout().NumPods)
		for p := range fcs {
			fcs[p] = mea.NewFullCounters()
		}
		for _, d := range plane {
			fcs[d.Pod].Observe(d.Page)
		}
	})
	b.set("mea.fc_observe_ns_per_req", perReq(fc, n))

	// Mechanisms: construction, then the serial engine per mechanism, and
	// MemPod on the default (auto pod-parallel) path.
	engine := map[string]float64{}
	results := map[string]stats.Result{}
	for _, m := range mechanisms {
		builds := make([]time.Duration, 5)
		for i := range builds {
			sp := b.tr.begin(root, "mech.build", m)
			t0 := time.Now()
			_, mm, err := buildMechanism(m)
			builds[i] = time.Since(t0)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			mech.Release(mm)
		}
		b.set("mech.build_us."+m, us(median(builds)))

		var runErr error
		d := b.measure(root, "sim.Engine.Run", m, func() {
			res, _, err := runEngine(m, snap, workloadName, 1)
			if err != nil {
				runErr = err
			}
			results[m] = res
		})
		if runErr != nil {
			return runErr
		}
		engine[m] = perReq(d, n)
		b.set("sim.engine_ns_per_req."+m, engine[m])
		b.set("memsys.accesses_per_req."+m, accessesPerReq(results[m]))
	}
	for _, m := range migrating {
		mig := results[m].Mig
		b.set("mech.decide_ns_per_req."+m, engine[m]-engine["TLM"])
		moved := mig.PageMigrations
		if m == "CAMEO" {
			moved = mig.LineMigrations
		}
		b.set("mech.migrations."+m, float64(moved))
		if sched := mig.DroppedMigrations + moved; sched > 0 {
			b.set("mech.dropped_frac."+m, float64(mig.DroppedMigrations)/float64(sched))
		}
	}
	var auto *sim.Engine
	var runErr error
	autoD := b.measure(root, "sim.Engine.Run", "MemPod/auto", func() {
		res, e, err := runEngine("MemPod", snap, workloadName, 0)
		if err != nil {
			runErr = err
		}
		auto = e
		if resultDigest(res) != resultDigest(results["MemPod"]) {
			b.check.problemf("MemPod pod-parallel result differs from the serial engine's")
		}
	})
	if runErr != nil {
		return runErr
	}
	b.set("sim.engine_auto_ns_per_req.MemPod", perReq(autoD, n))
	b.set("sim.podparallel_speedup.MemPod", engine["MemPod"]/perReq(autoD, n))
	b.set("sim.parallel_blocks.MemPod", float64(auto.ParallelBlocks()))
	b.set("sim.column_spans.MemPod", float64(auto.ColumnSpans()))
	b.infof("pod-parallel speed-up %.3fx = serial %.1f ns/req / auto %.1f ns/req at GOMAXPROCS=%d",
		engine["MemPod"]/perReq(autoD, n), engine["MemPod"], perReq(autoD, n), runtime.GOMAXPROCS(0))

	// Leftover: the share of the serial cell the isolated layers do not
	// explain.
	replayNs, kernelNs, noteNs := perReq(replay, n), perReq(kernel, n), perReq(note, n)
	tlmLayers := replayNs + kernelNs*accessesPerReq(results["TLM"]) + noteNs
	memPodLayers := replayNs + kernelNs*accessesPerReq(results["MemPod"]) + noteNs + perReq(observe-hotTotal, n) + hotPerReq
	b.set("sim.leftover_frac.TLM", 1-tlmLayers/engine["TLM"])
	b.set("sim.leftover_frac.MemPod", 1-memPodLayers/engine["MemPod"])

	// The facade cell: RunTrace's wall time and allocation per mechanism,
	// cross-checked against the serial engine's result.
	for _, m := range mechanisms {
		var allocs []float64
		var res mempod.Result
		var runErr error
		d := b.measure(root, "mempod.RunTrace", m, func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, runErr = mempod.RunTrace(rt.t, replayOptions(m))
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		})
		if runErr != nil {
			return runErr
		}
		if resultDigest(res) != resultDigest(results[m]) {
			b.check.problemf("%s: RunTrace result differs from the serial engine's", m)
		}
		b.set("mempod.cell_ms."+m, ms(d))
		b.set("mempod.cell_alloc_mb."+m, median(allocs))
	}

	if err := measureResultCache(b, root, results, workloadName, n); err != nil {
		return err
	}
	return nil
}

// accessesPerReq is the memory accesses (demand, migration and
// bookkeeping) a cell made per trace request.
func accessesPerReq(r stats.Result) float64 {
	return float64(r.FastAccesses+r.SlowAccesses) / float64(r.Requests)
}

// runEngine replays snap under mechanism m through sim.Engine with the
// given Shards setting, on a fresh memory system.
func runEngine(m string, snap *trace.Snapshot, workloadName string, shards int) (stats.Result, *sim.Engine, error) {
	be, mm, err := buildMechanism(m)
	if err != nil {
		return stats.Result{}, nil, err
	}
	defer mech.Release(mm)
	e := sim.New(be, mm)
	e.Shards = shards
	res, err := e.Run(workloadName, snap.DecodedStream(&be.Geom))
	return res, e, err
}

// measureTraceLayers times trace generation, the per-core merge, recording
// and the snapshot file operations.
func measureTraceLayers(b *bench, root int, snap *trace.Snapshot, workloadName, path string) error {
	var w workload.Workload
	for _, c := range workload.All() {
		if c.Name == workloadName {
			w = c
		}
	}
	n := min(snap.Len(), prefixCap)
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	var genErr error
	gen := b.measure(root, "workload.Workload.Stream", workloadName, func() {
		s, err := w.Stream(n, b.opt.seed)
		if err != nil {
			genErr = err
			return
		}
		var r trace.Request
		for s.Next(&r) {
		}
	})
	if genErr != nil {
		return genErr
	}
	b.set("workload.generate_ns_per_req", perReq(gen))

	s, err := w.Stream(n, b.opt.seed)
	if err != nil {
		return err
	}
	reqs := trace.Collect(s)
	var perCore [8][]trace.Request
	for _, r := range reqs {
		perCore[r.Core] = append(perCore[r.Core], r)
	}
	drain := func(s trace.Stream) {
		var r trace.Request
		for s.Next(&r) {
		}
	}
	merge := b.measure(root, "trace.NewMergeStream", "", func() {
		srcs := make([]trace.Stream, len(perCore))
		for c := range perCore {
			srcs[c] = trace.NewSliceStream(perCore[c])
		}
		drain(trace.NewMergeStream(srcs...))
	})
	flat := b.measure(root, "trace.SliceStream", "", func() { drain(trace.NewSliceStream(reqs)) })
	b.set("trace.merge_ns_per_req", perReq(merge-flat))
	record := b.measure(root, "trace.Record", "", func() {
		trace.Record(trace.NewSliceStream(reqs), n).Release()
	})
	b.set("trace.record_ns_per_req", perReq(record))
	b.set("trace.snapshot_bytes_per_req", float64(snap.Size())/float64(snap.Len()))

	// File operations on the full trace: write, then open the same file
	// mapped and copied; the copy's first plane and time-column decodes.
	copyPath := filepath.Join(filepath.Dir(path), "copy.mps1")
	var fileErr error
	write := b.measure(root, "trace.WriteSnapshot", "", func() {
		f, err := os.Create(copyPath)
		if err != nil {
			fileErr = err
			return
		}
		bw := bufio.NewWriter(f)
		if err := trace.WriteSnapshot(bw, workloadName, snap); err != nil {
			fileErr = err
		}
		if err := bw.Flush(); err != nil {
			fileErr = err
		}
		if err := f.Close(); err != nil {
			fileErr = err
		}
	})
	if fileErr != nil {
		return fileErr
	}
	b.set("trace.write_ms", ms(write))
	mapped := b.measure(root, "trace.OpenMapped", "", func() {
		s, _, err := trace.OpenMapped(copyPath)
		if err != nil {
			fileErr = err
			return
		}
		s.Release()
	})
	if fileErr != nil {
		return fileErr
	}
	b.set("trace.open_mapped_ms", ms(mapped))
	var planes, timecols []time.Duration
	g := standardGeom()
	copied := b.measure(root, "trace.ReadSnapshot", "", func() {
		f, err := os.Open(copyPath)
		if err != nil {
			fileErr = err
			return
		}
		defer f.Close()
		s, _, err := trace.ReadSnapshot(bufio.NewReader(f))
		if err != nil {
			fileErr = err
			return
		}
		t0 := time.Now()
		s.Plane(&g)
		planes = append(planes, time.Since(t0))
		t0 = time.Now()
		s.TimeColumn()
		timecols = append(timecols, time.Since(t0))
		s.Release()
	})
	if fileErr != nil {
		return fileErr
	}
	b.set("trace.open_copy_ms", ms(copied-median(planes)-median(timecols)))
	b.set("trace.plane_ns_per_req", float64(median(planes).Nanoseconds())/float64(snap.Len()))
	b.set("trace.timecol_ns_per_req", float64(median(timecols).Nanoseconds())/float64(snap.Len()))
	return os.Remove(copyPath)
}

// measureResultCache times the result cache's store operations on the
// layer run's cell results: Put into a store, Probe and Lookup on fresh
// caches over it, and the payload codec.
func measureResultCache(b *bench, root int, results map[string]stats.Result, workloadName string, requests int) error {
	dir, err := b.scratch("rcstore")
	if err != nil {
		return err
	}
	const cells = 60
	keys := make([]resultcache.CellKey, cells)
	payloads := make([][]byte, cells)
	for i := range keys {
		m := mechanisms[i%len(mechanisms)]
		keys[i] = resultcache.CellKey{SimVersion: sim.Version, Kind: resultcache.KindResult,
			Mech: "perfbench/" + m, Workload: workloadName, Requests: requests, Seed: int64(i)}
		payloads[i] = resultcache.EncodeResult(results[m])
	}
	perCall := func(name string, f func(i int)) float64 {
		ds := make([]time.Duration, cells)
		for i := range ds {
			sp := b.tr.begin(root, name, "")
			t0 := time.Now()
			f(i)
			ds[i] = time.Since(t0)
			b.tr.end(sp)
		}
		return us(median(ds))
	}
	put := storeCache(dir)
	b.set("resultcache.put_us", perCall("resultcache.Cache.Put", func(i int) { put.Put(keys[i], payloads[i]) }))
	probe := storeCache(dir)
	missing := 0
	b.set("resultcache.probe_us", perCall("resultcache.Cache.Probe", func(i int) {
		if !probe.Probe(keys[i]) {
			missing++
		}
	}))
	load := storeCache(dir)
	b.set("resultcache.load_us", perCall("resultcache.Cache.Lookup", func(i int) {
		if _, ok := load.Lookup(keys[i]); !ok {
			missing++
		}
	}))
	if missing > 0 {
		b.check.problemf("%d stored results not found again", missing)
	}
	const codecRounds = 2000
	var codecErr error
	codec := b.measure(root, "resultcache.codec", "", func() {
		for i := 0; i < codecRounds; i++ {
			if _, err := resultcache.DecodeResult(resultcache.EncodeResult(results[mechanisms[i%len(mechanisms)]])); err != nil {
				codecErr = err
			}
		}
	})
	b.set("resultcache.codec_ns", float64(codec.Nanoseconds())/codecRounds)
	return codecErr
}

// Small helpers for durations and medians.

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
func ms(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e3 }

// overhead is the traced run's extra time as a share of the untraced.
func overhead(untraced, traced time.Duration) float64 {
	return traced.Seconds()/untraced.Seconds() - 1
}

// median returns the middle value of vs (the mean of the middle two for
// an even count), or zero for none.
func median[T ~int64 | ~float64](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
