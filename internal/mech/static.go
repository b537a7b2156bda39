package mech

import (
	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/trace"
)

// Static is a mechanism that performs no migration: every request is
// serviced at its home location. With a two-level layout it is the paper's
// "TLM / no-migration" baseline; with a single-level layout it models the
// HBM-only and DDR-only reference points of Figures 8 and 10.
type Static struct {
	name    string
	backend *Backend
}

// NewStatic returns a no-migration mechanism over the backend.
func NewStatic(name string, b *Backend) *Static {
	return &Static{name: name, backend: b}
}

// Name implements Mechanism.
func (s *Static) Name() string { return s.name }

// Access implements Mechanism.
func (s *Static) Access(r *trace.Request, at clock.Time) clock.Time {
	return s.backend.HomeLine(addr.LineOf(addr.Addr(r.Addr)), r.Write, at)
}

// AccessDecoded implements Mechanism: with no migration, the home
// location in the plane is the final location — the access needs no
// address math at all.
func (s *Static) AccessDecoded(r *trace.Request, d *trace.Decoded, at clock.Time) clock.Time {
	return s.backend.LineAt(d.Chan, d.Row, r.Write, at)
}

// AccessColumn implements Mechanism: with no translation state and
// no migration traffic there are no flush points — every request routes
// straight to its precomputed home channel's column.
func (s *Static) AccessColumn(sc *trace.SpanColumns, at, done []clock.Time) {
	p := s.backend.Plan()
	p.Begin(done)
	dec := sc.Dec
	for i := range dec {
		done[i] = 0
		p.Route(int(dec[i].Chan), uint64(dec[i].Row), sc.Write(i), at[i], int32(i))
	}
	p.Flush()
}

// Stats implements Mechanism. Static never migrates.
func (s *Static) Stats() MigStats { return MigStats{} }

var _ Mechanism = (*Static)(nil)
