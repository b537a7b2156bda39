// Package mechtest drives a mechanism one request at a time, for unit
// tests that script individual accesses.
package mechtest

import (
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/trace"
)

// Access services r, issued at at, through m's AccessColumn as a
// one-request span decoded under b's geometry (b must be the backend m
// was built over), and returns its completion. A one-request span
// flushes after its request: the per-request service.
func Access(b *mech.Backend, m mech.Mechanism, r *trace.Request, at clock.Time) clock.Time {
	snap := trace.Record(trace.NewSliceStream([]trace.Request{*r}), 1)
	defer snap.Release()
	sc := snap.DecodedStream(&b.Geom).NextSpan(1)
	done := []clock.Time{0}
	m.AccessColumn(&sc, []clock.Time{at}, done)
	return done[0]
}
