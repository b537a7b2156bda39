package mempod

import (
	"strings"
	"testing"
)

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 27 {
		t.Fatalf("Workloads() = %d names, want 27", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w] {
			t.Fatalf("duplicate workload %q", w)
		}
		seen[w] = true
	}
	for _, want := range []string{"mcf", "libquantum", "mix1", "mix12"} {
		if !seen[want] {
			t.Errorf("missing workload %q", want)
		}
	}
}

func TestRunDefaultsToMemPod(t *testing.T) {
	res, err := Run("gcc", Options{Requests: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "MemPod" {
		t.Errorf("default mechanism %q", res.Mechanism)
	}
	if res.Requests != 30_000 || res.AMMAT() <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}

func TestRunEveryMechanism(t *testing.T) {
	for _, m := range Mechanisms() {
		o := Options{Mechanism: m, Requests: 20_000}
		if m == MechHMA {
			o.HMA = HMAOptions{Interval: Millisecond, SortStall: 70 * Microsecond, MaxMigrations: 256}
		}
		res, err := Run("mix2", o)
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		if res.AMMAT() <= 0 {
			t.Errorf("%s: non-positive AMMAT", m)
		}
	}
}

func TestRunFutureMemoriesFaster(t *testing.T) {
	base, err := Run("cactus", Options{Mechanism: MechTLM, Requests: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := Run("cactus", Options{Mechanism: MechTLM, Requests: 40_000, FutureMemories: true})
	if err != nil {
		t.Fatal(err)
	}
	if fut.AMMAT() >= base.AMMAT() {
		t.Errorf("future memories (%.2f ns) not faster than baseline (%.2f ns)",
			fut.AMMAT(), base.AMMAT())
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run("nonesuch", Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run("gcc", Options{Mechanism: "bogus"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run("mix7", Options{Requests: 25_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("mix7", Options{Requests: 25_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs differ")
	}
}

func TestRunMemPodOptionsApplied(t *testing.T) {
	// A MemPod with one counter migrates far less than the default 64.
	small, err := Run("cactus", Options{Requests: 60_000, MemPod: MemPodOptions{Counters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run("cactus", Options{Requests: 60_000, MemPod: MemPodOptions{Counters: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Mig.PageMigrations >= big.Mig.PageMigrations {
		t.Errorf("1-counter MemPod migrated %d >= 256-counter %d",
			small.Mig.PageMigrations, big.Mig.PageMigrations)
	}
}

func TestExperimentsEnumeration(t *testing.T) {
	es := Experiments()
	if len(es) != 12 {
		t.Fatalf("Experiments() = %d entries, want 12", len(es))
	}
}

func TestRunExperimentStaticTables(t *testing.T) {
	for _, e := range []Experiment{Table1, Table2, Table3} {
		tab, err := RunExperiment(e, Quick)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if tab.Text == "" || tab.CSV == "" || len(tab.Rows) == 0 {
			t.Errorf("%s: empty rendering", e)
		}
	}
}

func TestRunExperimentQuickOracle(t *testing.T) {
	tab, err := RunExperiment(Fig2, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Text, "MEA") || !strings.Contains(tab.Text, "FC") {
		t.Errorf("fig2 text missing schemes:\n%s", tab.Text)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", Quick); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCustomWorkload(t *testing.T) {
	def := `{
	  "name": "kv-store",
	  "profiles": [{
	    "name": "kv",
	    "footprint_pages": 65536,
	    "hot_pages": 4096, "hot_frac": 0.85, "zipf_s": 1.2,
	    "lines_per_touch": 2, "write_frac": 0.4, "gap_mean_ns": 70
	  }],
	  "cores": ["kv"]
	}`
	res, err := RunCustom(strings.NewReader(def), Options{Requests: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "kv-store" || res.AMMAT() <= 0 {
		t.Fatalf("custom run result %+v", res)
	}
	if _, err := RunCustom(strings.NewReader("not json"), Options{}); err == nil {
		t.Error("garbage definition accepted")
	}
}

// TestFootprintInFastMemoryIsMigrationFree is a metamorphic check: libquantum's
// footprint fits entirely in fast memory, so under every mechanism every
// access — demand and bookkeeping alike — is served by fast memory, no
// byte migrates, and the AMMAT equals the no-migration TLM baseline's
// exactly. A mechanism that moved pages it did not need to, or charged a
// cost TLM does not pay, breaks the equality.
func TestFootprintInFastMemoryIsMigrationFree(t *testing.T) {
	tr, err := RecordTrace("libquantum", 100_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTrace(tr, Options{Mechanism: MechTLM})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Mechanisms() {
		if m == MechDDROnly {
			continue // a slow-memory-only reference: nothing is fast there
		}
		t.Run(string(m), func(t *testing.T) {
			o := Options{Mechanism: m}
			if m == MechHMA {
				// mempodsim -compare's scaled HMA, so its interval
				// machinery runs inside the trace.
				o.HMA = HMAOptions{Interval: 10 * Millisecond, SortStall: 700 * Microsecond, MaxMigrations: 4096}
			}
			res, err := RunTrace(tr, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.AMMAT() != base.AMMAT() || res.TotalStall != base.TotalStall {
				t.Errorf("AMMAT %.6f ns (stall %v), want TLM's %.6f ns (stall %v)",
					res.AMMAT(), res.TotalStall, base.AMMAT(), base.TotalStall)
			}
			if res.Mig.BytesMoved != 0 || res.Mig.PageMigrations != 0 || res.Mig.LineMigrations != 0 {
				t.Errorf("moved %d bytes (%d pages, %d lines), want none",
					res.Mig.BytesMoved, res.Mig.PageMigrations, res.Mig.LineMigrations)
			}
			if res.SlowAccesses != 0 || res.FastAccesses < res.Requests {
				t.Errorf("%d fast and %d slow accesses for %d requests, want all fast",
					res.FastAccesses, res.SlowAccesses, res.Requests)
			}
		})
	}
}
