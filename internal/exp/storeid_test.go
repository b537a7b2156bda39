package exp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mempod "repro"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/resultcache"
)

// TestGoldenStoreIdentity pins the result store's identity: the canonical
// key line and fingerprint (the store file name) of a Quick-config cell
// under every Figure 8 baseline mechanism, of an oracle-study cell and of
// a facade RunTrace cell, plus every dram preset's fingerprint. These
// bytes are part of the MPR1 store format — drift here silently turns
// every existing store entry into a miss — so a deliberate change must
// bump the key format tag (resultcache keyFormat) and regenerate with
//
//	go test ./internal/exp -run TestGoldenStoreIdentity -update
func TestGoldenStoreIdentity(t *testing.T) {
	var b strings.Builder
	line := func(label string, k resultcache.CellKey) {
		fmt.Fprintf(&b, "%s %016x %s\n", label, k.Fingerprint(), k.Canonical())
	}

	params := exp.QuickConfig().WithWorkloads("mix5").Params()
	plan, err := exp.BuildPlan([]exp.Job{{Experiment: "fig8", Params: params}})
	if err != nil {
		t.Fatal(err)
	}
	baseline := []string{"TLM", "MemPod", "HMA", "THM", "CAMEO", "HBM-only"}
	if plan.Len() != len(baseline) {
		t.Fatalf("fig8 plan over one workload has %d cells, want one per baseline builder (%d)", plan.Len(), len(baseline))
	}
	for i, name := range baseline {
		line("fig8/"+name, plan.Key(i))
	}

	plan, err = exp.BuildPlan([]exp.Job{{Experiment: "fig1", Params: params}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 {
		t.Fatalf("oracle plan over one workload has %d cells, want 1", plan.Len())
	}
	line("oracle", plan.Key(0))

	line("facade/RunTrace", facadeTraceKey(t))

	for _, s := range dram.Presets() {
		fmt.Fprintf(&b, "dram/%s %016x\n", s.Name, s.Fingerprint())
	}
	exp.CheckGolden(t, "store_identity", b.String())
}

// facadeTraceKey runs a recorded trace through the facade into an empty
// store and returns the key of the one file it wrote, checking that the
// file is named by the key's fingerprint.
func facadeTraceKey(t *testing.T) resultcache.CellKey {
	t.Helper()
	tr, err := mempod.RecordTrace("mix5", 20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rc, err := mempod.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mempod.RunTrace(tr, mempod.Options{Mechanism: mempod.MechMemPod, Results: rc}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store holds %d files after one run, want 1", len(ents))
	}
	frame, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := resultcache.DecodeFile(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x.mpr1", key.Fingerprint()); ents[0].Name() != want {
		t.Fatalf("store file %s, want %s", ents[0].Name(), want)
	}
	return key
}
