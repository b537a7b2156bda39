package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cameo"
	"repro/internal/core"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/migrant"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mechanisms is the full set under test, each built fresh over its own
// backend so runs share nothing.
var mechanisms = []struct {
	name  string
	build func(b *mech.Backend) mech.Mechanism
}{
	{"MemPod", func(b *mech.Backend) mech.Mechanism { return core.MustNew(core.DefaultConfig(), b) }},
	{"MemPod-FC", func(b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.UseFullCounters = true
		return core.MustNew(cfg, b)
	}},
	{"HMA", func(b *mech.Backend) mech.Mechanism { return hma.MustNew(hma.DefaultConfig(), b) }},
	{"THM", func(b *mech.Backend) mech.Mechanism { return thm.MustNew(thm.DefaultConfig(), b) }},
	{"CAMEO", func(b *mech.Backend) mech.Mechanism { return cameo.MustNew(cameo.DefaultConfig(), b) }},
	{"Migrant", func(b *mech.Backend) mech.Mechanism { return migrant.MustNew(migrant.DefaultConfig(), b) }},
	{"Static", func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) }},
}

// diffResults compares two Results field-by-field via reflection so a
// divergence names the exact field, not just "structs differ".
func diffResults(t *testing.T, label string, got, want stats.Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s = %v, want %v", label, f.Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// TestBatchedEngineBitIdentical is the engine's differential guarantee:
// every mechanism replays one mixed workload through the test-only
// per-request oracle (through Access and through AccessDecoded) and
// through the production column loop, at the default window, a narrow
// one and an unlimited one, and all runs must agree field by field —
// final touch-filter state included. Spans, the shared plane and the
// mechanisms' column entry points are pure restructurings of the
// per-request service. A replay of the same snapshot written to a file
// and reopened (trace.OpenMapped, the disk-store open) is held to the
// same bar.
func TestBatchedEngineBitIdentical(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, w.Name, snap); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "wl.mps1")
	if err := os.WriteFile(mpath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fsnap, _, err := trace.OpenMapped(mpath)
	if err != nil {
		t.Fatal(err)
	}
	defer fsnap.Release()

	for _, mc := range mechanisms {
		for _, window := range []int{0, 32, -1} {
			p := enginePaths{t: t, name: w.Name, reqs: reqs, snap: snap,
				newSys: newBackend, build: mc.build, window: window}
			label := fmt.Sprintf("%s/window=%d", mc.name, window)
			ref := p.check(label)
			file := p.production(fsnap, "file", 0)
			diffResults(t, label+" file replay vs oracle(Access)", file.res, ref.res)
		}
	}
}

// BenchmarkEngineBatched tracks the fused batched replay cost per
// mechanism. The trace is snapshotted once outside the timer; each
// iteration replays it through a fresh cursor on a persistent
// backend+mechanism pair, so the steady state must be allocation-free
// (the acceptance criterion the tentpole carries).
func BenchmarkEngineBatched(b *testing.B) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	for _, mc := range mechanisms {
		b.Run(mc.name, func(b *testing.B) {
			bk := newBackend()
			m := mc.build(bk)
			e := New(bk, m)
			ss := snap.DecodedStream(&bk.Geom)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Reset()
				if _, err := e.Run(w.Name, ss); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
