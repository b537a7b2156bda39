package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mech"
	"repro/internal/trace"
	"repro/internal/workload"
)

// podParallelCases are the mechanisms that actually take the pod-parallel
// path (mech.PodSharded). The cache variant exercises the bookkeeping
// cache + BookkeepingRead branch, which the paper-default config leaves
// off.
var podParallelCases = []struct {
	name  string
	build func(b *mech.Backend) mech.Mechanism
}{
	{"MemPod", func(b *mech.Backend) mech.Mechanism { return core.MustNew(core.DefaultConfig(), b) }},
	{"MemPod-FC", func(b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.UseFullCounters = true
		return core.MustNew(cfg, b)
	}},
	{"MemPod-cache", func(b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.CacheBytes = 1 << 16
		return core.MustNew(cfg, b)
	}},
}

// TestPodParallelBitIdentical is pod-parallel's differential guarantee:
// for every mechanism, replaying one trace through the test-only oracle
// (Access and AccessDecoded), the serial column loop and the pod-parallel
// path (workers forced on, whatever GOMAXPROCS is) must produce
// field-identical Results — and leave the mechanisms' shared touch
// filters in identical states. Mechanisms that are not pod-sharded (HMA,
// THM, CAMEO, Migrant, Static: their swaps cross pods mid-interval) must
// run serially whatever Shards says, which the ParallelBlocks counter
// asserts. CI runs this under -race, which is the other half of the
// proof: any cross-pod state AccessShardedColumn touches concurrently is
// a detected race, not a silent divergence.
func TestPodParallelBitIdentical(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	paths := func(t *testing.T, build func(b *mech.Backend) mech.Mechanism, window int) enginePaths {
		return enginePaths{t: t, name: w.Name, reqs: reqs, snap: snap,
			newSys: newBackend, build: build, window: window}
	}

	// Every mechanism at the default window, shards forced to the pod
	// count: sharded mechanisms must parallelize, the rest must stay
	// serial — and all must match the oracle exactly.
	for _, mc := range mechanisms {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			paths(t, mc.build, 0).check(mc.name, 4)
		})
	}

	// The sharded mechanisms across window shapes and worker counts:
	// window 32 makes blocks small (many wavefronts, boundary crossings
	// land mid-block), -1 removes gating entirely (unlimited-block path),
	// and 3 workers assigns pods unevenly (pod 3 shares worker 0). The
	// cache variant exercises the bookkeeping cache's per-request
	// fallback inside the sharded column entry point.
	for _, mc := range podParallelCases {
		mc := mc
		for _, window := range []int{0, 32, -1} {
			for _, shards := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/window=%d/shards=%d", mc.name, window, shards), func(t *testing.T) {
					paths(t, mc.build, window).check(mc.name, shards)
				})
			}
		}
	}
}

// TestPodParallelRejectsUnorderedTrace mirrors the oracle's
// order-violation contract on the parallel path: the run fails with the
// oracle's error, and the requests before the violation are still
// accounted (the block truncates exactly at the offending request).
func TestPodParallelRejectsUnorderedTrace(t *testing.T) {
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(1000, 11))
	// Corrupt one timestamp mid-stream so the violation lands inside a
	// block, after several complete blocks.
	reqs[700].Time = reqs[699].Time - 1
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	newEngine := func(shards int) *Engine {
		b := newBackend()
		e := New(b, core.MustNew(core.DefaultConfig(), b))
		e.Shards = shards
		return e
	}
	refRes, refErr := newEngine(0).runOracle(w.Name, trace.NewSliceStream(reqs), nil)
	if refErr == nil {
		t.Fatal("oracle accepted the unordered trace")
	}
	for _, shards := range []int{1, 2, 3, 4} {
		e := newEngine(shards)
		res, err := e.Run(w.Name, snap.DecodedStream(&e.backend.Geom))
		if err == nil {
			t.Fatalf("shards=%d: unordered trace accepted", shards)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error diverged:\noracle: %v\ngot:    %v", shards, refErr, err)
		}
		diffResults(t, fmt.Sprintf("shards=%d partial result vs oracle", shards), res, refRes)
	}
}

// BenchmarkEnginePodParallel measures the opt-in pod-parallel path against
// the serial column loop (shards=1) on one MemPod replay, so the
// intra-cell speedup is a reported number; the forced worker counts show
// the scaling shape on multicore machines.
func BenchmarkEnginePodParallel(b *testing.B) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			if shards > 1 && runtime.GOMAXPROCS(0) == 1 {
				// With one P the forced-shard variants measure nothing but
				// goroutine barrier overhead on a machine that cannot run
				// the workers concurrently; the numbers would only pollute
				// bench baselines collected on parallel hardware.
				b.Skip("GOMAXPROCS=1: forced-shard variant would serialize; skipping")
			}
			bk := newBackend()
			e := New(bk, core.MustNew(core.DefaultConfig(), bk))
			e.Shards = shards
			ss := snap.DecodedStream(&bk.Geom)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Reset()
				if _, err := e.Run(w.Name, ss); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
		})
	}
}
