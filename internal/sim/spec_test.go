package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hardwiredHBM and hardwiredDDR4 are the paper pair exactly as the
// pre-refactor constructors compiled them — literal structs, not calls
// into the spec registry — so the differential below proves the registry
// path changes nothing on the paper configuration.
func hardwiredHBM() dram.Spec {
	return dram.Spec{
		Name:     "HBM",
		BusFreq:  1 * clock.GHz,
		BusBits:  128,
		Channels: 8,
		Banks:    16,
		RowBytes: 8192,
		CAS:      7, RCD: 7, RP: 7, RAS: 17,
	}
}

func hardwiredDDR4() dram.Spec {
	return dram.Spec{
		Name:     "DDR4-1600",
		BusFreq:  800 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    16,
		RowBytes: 8192,
		CAS:      11, RCD: 11, RP: 11, RAS: 28,
	}
}

// TestSpecPresetBitIdentical runs every mechanism on the HBM+DDR4 paper
// configuration twice — once over the pre-refactor hardwired spec values,
// once over the registry presets — and requires field-identical Results.
// This is the refactor's contract: moving the paper pair into the
// declarative registry is a pure restructuring.
func TestSpecPresetBitIdentical(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	snap := trace.Record(w.MustStream(n, 11), n)
	defer snap.Release()

	run := func(fast, slow dram.Spec, mc func(b *mech.Backend) mech.Mechanism) stats.Result {
		b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), fast, slow))
		m := mc(b)
		defer mech.Release(m)
		e := New(b, m)
		res, err := e.Run(w.Name, snap.DecodedStream(&b.Geom))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, mc := range mechanisms {
		hardwired := run(hardwiredHBM(), hardwiredDDR4(), mc.build)
		preset := run(dram.MustPreset("HBM"), dram.MustPreset("DDR4-1600"), mc.build)
		diffResults(t, mc.name+" preset vs hardwired", preset, hardwired)
	}
}

// specPair returns the (fast, slow) pair a preset is evaluated in:
// stacked presets take the fast role against the paper's DDR4, everything
// else takes the slow role behind the paper's HBM.
func specPair(preset string) (fast, slow dram.Spec) {
	if strings.HasPrefix(preset, "HBM") {
		return dram.MustPreset(preset), dram.MustPreset("DDR4-1600")
	}
	return dram.MustPreset("HBM"), dram.MustPreset(preset)
}

// checkAcrossSpecs holds one mechanism to the engine's differential bar
// on every preset the registry ships, at the default, a narrow and an
// unlimited window: the per-request oracle, the production column loop and pod-parallel at 2–4 shards must agree field by field,
// touch-filter state included — on the presets with non-default row
// geometry (LPDDR5, NVM), write asymmetry (NVM) and link latency (CXL)
// too.
func checkAcrossSpecs(t *testing.T, mc func(b *mech.Backend) mech.Mechanism, name string, n int) {
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	snap := trace.Record(w.MustStream(n, 11), n)
	defer snap.Release()

	for _, preset := range dram.PresetNames() {
		fast, slow := specPair(preset)
		newSys := func() *mech.Backend {
			return mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), fast, slow))
		}
		for _, window := range []int{0, 32, -1} {
			p := enginePaths{t: t, name: w.Name, snap: snap,
				newSys: newSys, build: mc, window: window}
			p.check(fmt.Sprintf("%s %s/window=%d", name, preset, window), 2, 3, 4)
		}
	}
}

// TestMigrantBatchedBitIdenticalAcrossSpecs holds Migrant to the
// engine's differential bar on every preset spec.
func TestMigrantBatchedBitIdenticalAcrossSpecs(t *testing.T) {
	mi := mechanisms[migrantIndex(t)]
	checkAcrossSpecs(t, mi.build, mi.name, 40_000)
}

// TestEngineBitIdenticalAcrossSpecs holds every other mechanism to the
// same bar on every preset spec, on a shorter trace.
func TestEngineBitIdenticalAcrossSpecs(t *testing.T) {
	for _, mc := range mechanisms {
		if mc.name == "Migrant" {
			continue
		}
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			checkAcrossSpecs(t, mc.build, mc.name, 20_000)
		})
	}
}

// migrantIndex locates Migrant in the shared mechanisms table.
func migrantIndex(t *testing.T) int {
	t.Helper()
	for i, mc := range mechanisms {
		if mc.name == "Migrant" {
			return i
		}
	}
	t.Fatal("Migrant missing from mechanisms table")
	return -1
}
