package exp

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/tracecache"
)

// TestMatrixSnapshotResidencyBounded runs the full 27-workload × 6-builder
// matrix and asserts the trace cache's two scaling contracts at once:
// every workload's trace is generated exactly once (single-flight,
// generate-once), and peak snapshot residency is bounded by the worker
// count, not the workload count — the point of workload-major task
// ordering. Without that ordering (or with lifetime bugs), 27 snapshots
// would sit resident at once; the bound here is Parallelism+1 (the
// workloads in flight, plus at most one straddling the dispatch frontier).
func TestMatrixSnapshotResidencyBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	c := QuickConfig()
	c.Workloads = DefaultConfig().Workloads // all 27
	c.Requests = 2_000
	c.Parallelism = 3
	c.Traces = tracecache.New()

	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())
	if _, err := c.matrix(builders); err != nil {
		t.Fatal(err)
	}

	st := c.Traces.Stats()
	if want := len(c.Workloads); st.Generated != want {
		t.Errorf("generated %d traces, want exactly %d (one per workload)", st.Generated, want)
	}
	if want := len(c.Workloads) * (len(builders) - 1); st.Hits != want {
		t.Errorf("cache hits %d, want %d", st.Hits, want)
	}
	if bound := c.Parallelism + 1; st.Peak > bound {
		t.Errorf("peak residency %d snapshots, want <= Parallelism+1 = %d", st.Peak, bound)
	}
	if st.Live != 1 || st.Idle != 1 {
		t.Errorf("Live=%d Idle=%d after the matrix completed, want only the idle snapshot", st.Live, st.Idle)
	}
}

// TestOracleStudyResidencyBounded extends the residency bound to the §3
// study, whose per-workload tasks each use their trace exactly once.
func TestOracleStudyResidencyBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle study")
	}
	c := QuickConfig()
	c.Requests = OracleIntervalReqs * 3
	c.Parallelism = 2
	c.Traces = tracecache.New()
	if _, err := c.OracleStudy(); err != nil {
		t.Fatal(err)
	}
	st := c.Traces.Stats()
	if st.Generated != len(c.Workloads) || st.Hits != 0 {
		t.Errorf("stats %+v, want %d generated / 0 hits", st, len(c.Workloads))
	}
	if bound := c.Parallelism + 1; st.Peak > bound {
		t.Errorf("peak residency %d, want <= %d", st.Peak, bound)
	}
	if st.Live != 1 || st.Idle != 1 {
		t.Errorf("Live=%d Idle=%d, want only the idle snapshot", st.Live, st.Idle)
	}
}
