package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenConfig is the pinned regression configuration: small enough to run
// in CI, large enough that migration mechanisms separate. It must never
// change silently — the committed golden files encode its exact output,
// so any drift in the simulator, the workload generators, or the
// experiment plumbing (including the parallel runner) fails these tests.
func goldenConfig() Config {
	c := QuickConfig()
	c.Requests = 30_000
	c.Workloads = selectWorkloads("cactus", "bwaves", "mix5")
	c.Parallelism = 0 // GOMAXPROCS: golden output must not depend on scheduling
	return c
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, regenerate with:\n\tgo test ./internal/exp -run TestGolden -update",
			name, got, want)
	}
}

// TestGoldenFig8 pins the Figure 8 mechanism comparison (the paper's
// headline result) for the golden config. Same Seed ⇒ identical table,
// regardless of Parallelism.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix")
	}
	tab, err := goldenConfig().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", tab.String())
}

// TestGoldenSpecGrid pins the (mechanism × spec-pair) grid — every
// migration mechanism including the OS-assisted Migrant policy, over the
// paper pair, the DDR5 generation, the CXL far-memory pair and the
// DRAM+NVM pair. This is the registry's coverage gate: a change to any
// preset's parameters, to the spec-driven row geometry, or to any
// mechanism's behaviour on a non-paper spec shows up here.
func TestGoldenSpecGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix")
	}
	c := goldenConfig()
	c.Workloads = selectWorkloads("cactus", "mix5")
	tab, err := c.SpecGrid()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "specgrid", tab.String())
}

// TestGoldenFig6 pins the §6.3.1 epoch × counters design-space sweep for
// one workload of the golden config.
func TestGoldenFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	c := goldenConfig()
	c.Workloads = selectWorkloads("cactus")
	tab, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6", tab.String())
}

// TestGoldenOracle pins the §3 offline study's three views (Figures 1–3)
// for the golden config: the MEA and full-counter ranking accuracy and
// next-interval prediction hits all come from one OracleStudy pass per
// workload, replayed from the trace cache.
func TestGoldenOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle study")
	}
	c := goldenConfig()
	for _, fig := range []struct {
		name string
		run  func() (*report.Table, error)
	}{{"fig1", c.Fig1}, {"fig2", c.Fig2}, {"fig3", c.Fig3}} {
		tab, err := fig.run()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fig.name, tab.String())
	}
}

// TestGoldenFig7 pins the §6.3.1 counter-width sweep (both design points)
// for one workload of the golden config.
func TestGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	c := goldenConfig()
	c.Workloads = selectWorkloads("cactus")
	tab, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", tab.String())
}

// TestGoldenFig9 pins the bookkeeping-cache sensitivity study: every
// cache size of MemPod, THM and HMA. Each cache miss issues one
// bookkeeping read through the column plan (mech.ColumnPlan.Issue) and
// its demand is routed at the read's completion, so the table also pins
// where those reads land among the demand columns.
func TestGoldenFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix")
	}
	tab, err := goldenConfig().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9", tab.String())
}

// TestGoldenFig10 pins the future-memory study (4 GHz HBM + DDR4-2400,
// normalized to DDR4-2400-only).
func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix")
	}
	tab, err := goldenConfig().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10", tab.String())
}
