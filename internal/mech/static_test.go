package mech_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/mech/mechtest"
	"repro/internal/memsys"
	"repro/internal/trace"
)

func TestStaticRoutesHome(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	s := mech.NewStatic("TLM", b)
	if s.Name() != "TLM" {
		t.Fatal("name")
	}
	fast := &trace.Request{Addr: 0}
	slow := &trace.Request{Addr: 2 << 30}
	f := mechtest.Access(b, s, fast, 0)
	sl := mechtest.Access(b, s, slow, 0)
	if f >= sl {
		t.Errorf("fast home access %v not faster than slow %v", f, sl)
	}
	if b.Sys.FastStats().Accesses() != 1 || b.Sys.SlowStats().Accesses() != 1 {
		t.Error("requests routed to wrong levels")
	}
	if s.Stats() != (mech.MigStats{}) {
		t.Error("static mechanism reported migrations")
	}
}
