package sim

import (
	"bytes"
	"testing"

	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// For a static mechanism, widening the outstanding-request window can only
// reduce total stall: requests issue no later, and the memory system is
// work-conserving.
func TestWindowMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	w, _ := workload.Homogeneous("mcf")
	run := func(window int) stats.Result {
		b := newBackend()
		e := New(b, mech.NewStatic("TLM", b))
		e.Window = window
		return mustReplay(t, e, "mcf", w.MustStream(40_000, 6))
	}
	prev := run(4)
	for _, window := range []int{16, 64, 256} {
		cur := run(window)
		if cur.TotalStall > prev.TotalStall {
			t.Errorf("window %d stall %v exceeds smaller window's %v",
				window, cur.TotalStall, prev.TotalStall)
		}
		prev = cur
	}
}

// The engine reports identical results whether the stream comes straight
// from the generator or is round-tripped through the snapshot file format
// — recorded traces are faithful replays.
func TestGeneratorVsReplayEquivalence(t *testing.T) {
	w, _ := workload.Mix(2)

	b1 := newBackend()
	live := mustReplay(t, New(b1, mech.NewStatic("TLM", b1)), "mix2", w.MustStream(20_000, 12))

	rec := trace.Record(w.MustStream(20_000, 12), 20_000)
	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, "mix2", rec); err != nil {
		t.Fatal(err)
	}
	rec.Release()
	snap, _, err := trace.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b2 := newBackend()
	replayed := mustReplay(t, New(b2, mech.NewStatic("TLM", b2)), "mix2", snap.Stream())

	if live != replayed {
		t.Fatalf("live %+v != replay %+v", live, replayed)
	}
}
