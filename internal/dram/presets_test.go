package dram

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
)

// TestPresetPinnedParameters pins the registry entries that predate the
// registry to the exact hardwired values the original constructors
// compiled: moving them behind Preset() must not change a single field.
func TestPresetPinnedParameters(t *testing.T) {
	pinned := []struct {
		name string
		want Spec
	}{
		{"HBM", Spec{
			Name: "HBM", BusFreq: 1 * clock.GHz, BusBits: 128, Channels: 8,
			Banks: 16, RowBytes: 8192, CAS: 7, RCD: 7, RP: 7, RAS: 17,
		}},
		{"DDR4-1600", Spec{
			Name: "DDR4-1600", BusFreq: 800 * clock.MHz, BusBits: 64, Channels: 4,
			Banks: 16, RowBytes: 8192, CAS: 11, RCD: 11, RP: 11, RAS: 28,
		}},
		{"HBM-4GHz", Spec{
			Name: "HBM-4GHz", BusFreq: 4 * clock.GHz, BusBits: 128, Channels: 8,
			Banks: 16, RowBytes: 8192, CAS: 7, RCD: 7, RP: 7, RAS: 17,
		}},
		{"DDR4-2400", Spec{
			Name: "DDR4-2400", BusFreq: 1200 * clock.MHz, BusBits: 64, Channels: 4,
			Banks: 16, RowBytes: 8192, CAS: 16, RCD: 16, RP: 16, RAS: 39,
		}},
	}
	for _, p := range pinned {
		got, err := Preset(p.name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p.want) {
			t.Errorf("Preset(%q) = %+v, want pre-registry %+v", p.name, got, p.want)
		}
	}
}

// TestPresetRegistry covers lookup semantics: every registered preset
// validates, names are canonical and sorted, aliases and case folding
// resolve, and an unknown name produces an error naming the options.
func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	if !sortedStrings(names) {
		t.Errorf("PresetNames not sorted: %v", names)
	}
	for _, name := range names {
		s := MustPreset(name)
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %s carries Name %q", name, s.Name)
		}
	}
	for alias, canonical := range map[string]string{
		"DDR4": "DDR4-1600", "DDR5": "DDR5-4800", "LPDDR5": "LPDDR5-6400",
		"NVM": "NVM-PCM", "CXL": "CXL-DDR5", "hbm2": "HBM2", "ddr4-1600": "DDR4-1600",
	} {
		s, err := Preset(alias)
		if err != nil {
			t.Errorf("Preset(%q): %v", alias, err)
			continue
		}
		if s.Name != canonical {
			t.Errorf("Preset(%q) = %s, want %s", alias, s.Name, canonical)
		}
	}
	_, err := Preset("GDDR7")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-preset error %q does not list %s", err, name)
		}
	}
	if len(Presets()) != len(names) {
		t.Errorf("Presets() returned %d specs for %d names", len(Presets()), len(names))
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// TestValidateNamedErrors checks each failure class is matchable with
// errors.Is against its sentinel.
func TestValidateNamedErrors(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := HBM()
		f(&s)
		return s
	}
	cases := []struct {
		spec Spec
		want error
	}{
		{mut(func(s *Spec) { s.BusFreq = 0 }), ErrBusFreq},
		{mut(func(s *Spec) { s.BusBits = 12 }), ErrBusBits},
		{mut(func(s *Spec) { s.Banks = 0 }), ErrBanks},
		{mut(func(s *Spec) { s.RowBytes = 3000 }), ErrRowBytes},
		{mut(func(s *Spec) { s.RowBytes = 32 }), ErrRowBytes},
		{mut(func(s *Spec) { s.CAS = 0 }), ErrTiming},
		{mut(func(s *Spec) { s.CAS = s.RAS + s.RP + 1 }), ErrTimingOrder},
		{mut(func(s *Spec) { s.RefreshInterval = -clock.Nanosecond }), ErrRefresh},
		{mut(func(s *Spec) { s.RefreshInterval = clock.Microsecond }), ErrRefresh},
		{mut(func(s *Spec) {
			s.RefreshInterval = clock.Microsecond
			s.RefreshTime = 2 * clock.Microsecond
		}), ErrRefresh},
		{mut(func(s *Spec) { s.WriteExtra = -1 }), ErrWriteExtra},
		{mut(func(s *Spec) { s.LinkTime = -clock.Nanosecond }), ErrLinkTime},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("case %d: error %v not matchable to sentinel %v", i, err, c.want)
		}
	}
}

// randomValidSpec draws a spec from the valid parameter space.
func randomValidSpec(rng *rand.Rand) Spec {
	s := Spec{
		Name:     "fuzzed",
		BusFreq:  clock.Freq(rng.Intn(4000)+100) * clock.MHz,
		BusBits:  8 * (1 << rng.Intn(5)), // 8..128
		Channels: rng.Intn(8) + 1,
		Banks:    rng.Intn(64) + 1,
		RowBytes: 64 << rng.Intn(9), // 64..16384
		CAS:      rng.Intn(40) + 1,
		RCD:      rng.Intn(100) + 1,
		RP:       rng.Intn(40) + 1,
		RAS:      rng.Intn(120) + 1,
	}
	if s.CAS > s.RAS+s.RP {
		s.CAS = s.RAS + s.RP
	}
	if rng.Intn(2) == 0 {
		s.WriteExtra = rng.Intn(500)
	}
	if rng.Intn(2) == 0 {
		s.LinkTime = clock.Duration(rng.Intn(200)) * clock.Nanosecond
	}
	if rng.Intn(3) == 0 {
		s = s.WithRefresh()
	}
	if rng.Intn(4) == 0 {
		s.Policy = ClosedPage
	}
	return s
}

// TestSpecLatencyProperties is the property layer over the valid space:
// every validated spec must produce positive, monotonically ordered
// service latencies (hit <= closed <= conflict), a positive burst time,
// and a fingerprint that changes when any timing field changes.
func TestSpecLatencyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		s := randomValidSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("generator produced invalid spec: %v", err)
		}
		hit, closed, conflict := s.RowHitLatency(), s.RowClosedLatency(), s.RowConflictLatency()
		if hit <= 0 || hit > closed || closed > conflict {
			t.Fatalf("latency order violated for %+v: hit %v closed %v conflict %v",
				s, hit, closed, conflict)
		}
		if s.BurstTime() <= 0 {
			t.Fatalf("non-positive burst time for %+v", s)
		}
		mutated := s
		mutated.CAS++
		if mutated.Fingerprint() == s.Fingerprint() {
			t.Fatalf("fingerprint insensitive to CAS for %+v", s)
		}
	}
}

// TestSpecFingerprintDistinct requires all shipped presets to have
// pairwise distinct fingerprints — the property result-cache keys rest on.
func TestSpecFingerprintDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, s := range Presets() {
		fp := s.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("presets %s and %s share fingerprint %x", prev, s.Name, fp)
		}
		seen[fp] = s.Name
	}
}

// TestSpecJSONRoundTrip marshals every preset and reloads it through
// LoadSpec, requiring exact field equality, and checks LoadSpec rejects
// unknown fields and invalid parameter values.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range Presets() {
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: round trip %+v != %+v", s.Name, got, s)
		}
	}
	if _, err := LoadSpec(strings.NewReader(`{"Name":"x","Typo":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadSpec(strings.NewReader(`{"Name":"x","BusFreq":0}`)); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestWriteAsymmetry pins the NVM write model: on an otherwise idle
// channel a write's completion trails a read's by exactly the programmed
// extra cycles, and a spec with WriteExtra=0 is untouched.
func TestWriteAsymmetry(t *testing.T) {
	spec := NVMPCM()
	read := NewChannel(spec).Access(3, false, 0)
	write := NewChannel(spec).Access(3, true, 0)
	extra := spec.BusFreq.Cycles(int64(spec.WriteExtra))
	if write != read+extra {
		t.Fatalf("write %v, read %v: want write = read + %v", write, read, extra)
	}
	sym := spec
	sym.WriteExtra = 0
	if r, w := NewChannel(sym).Access(3, false, 0), NewChannel(sym).Access(3, true, 0); r != w {
		t.Fatalf("WriteExtra=0 but read %v != write %v", r, w)
	}
}

// TestLinkLatency pins the CXL link model: completion shifts by exactly
// one round trip relative to the identical link-less device, for any
// access pattern (device-side contention is computed in device time).
func TestLinkLatency(t *testing.T) {
	linked := CXLDDR5()
	direct := linked
	direct.LinkTime = 0
	cl, cd := NewChannel(linked), NewChannel(direct)
	rng := rand.New(rand.NewSource(9))
	var at clock.Time
	for i := 0; i < 500; i++ {
		at += clock.Duration(rng.Intn(100)) * clock.Nanosecond
		row := uint64(rng.Intn(16))
		write := rng.Intn(3) == 0
		got := cl.Access(row, write, at)
		// The linked device sees the request LinkTime later and its reply
		// travels LinkTime back.
		want := cd.Access(row, write, at+linked.LinkTime) + linked.LinkTime
		if got != want {
			t.Fatalf("access %d: linked %v, want device(+link) %v", i, got, want)
		}
	}
	// Device-side counters are identical; LastFinish differs by exactly the
	// return hop, because the linked channel reports host-side completion.
	sl, sd := cl.Stats(), cd.Stats()
	if sl.LastFinish != sd.LastFinish+linked.LinkTime {
		t.Fatalf("LastFinish %v, want device %v + link %v", sl.LastFinish, sd.LastFinish, linked.LinkTime)
	}
	sl.LastFinish, sd.LastFinish = 0, 0
	if sl != sd {
		t.Fatalf("device-side stats diverged: %+v vs %+v", sl, sd)
	}
}

// FuzzSpecValidate throws arbitrary parameter tuples at Validate and
// checks the accept/reject contract: accepted specs must have coherent
// latencies and survive a JSON round trip; rejected specs must fail with
// one of the named sentinel errors (never a panic or an anonymous error).
func FuzzSpecValidate(f *testing.F) {
	for _, s := range Presets() {
		f.Add(int64(s.BusFreq), s.BusBits, s.Banks, s.RowBytes,
			s.CAS, s.RCD, s.RP, s.RAS, s.WriteExtra, int64(s.LinkTime))
	}
	f.Add(int64(0), 0, 0, 0, 0, 0, 0, 0, 0, int64(0))
	f.Add(int64(-1), 64, 16, 8192, 11, 11, 11, 28, -1, int64(-5))
	f.Add(int64(clock.GHz), 64, 16, 3000, 100, 1, 1, 1, 0, int64(0))
	sentinels := []error{
		ErrBusFreq, ErrBusBits, ErrBanks, ErrRowBytes,
		ErrTiming, ErrTimingOrder, ErrRefresh, ErrWriteExtra, ErrLinkTime,
	}
	f.Fuzz(func(t *testing.T, busFreq int64, busBits, banks, rowBytes,
		cas, rcd, rp, ras, writeExtra int, linkTime int64) {
		s := Spec{
			Name: "fuzz", BusFreq: clock.Freq(busFreq), BusBits: busBits,
			Channels: 1, Banks: banks, RowBytes: rowBytes,
			CAS: cas, RCD: rcd, RP: rp, RAS: ras,
			WriteExtra: writeExtra, LinkTime: clock.Duration(linkTime),
		}
		err := s.Validate()
		if err == nil {
			if s.RowHitLatency() <= 0 || s.RowConflictLatency() < s.RowClosedLatency() {
				t.Fatalf("accepted spec with incoherent latencies: %+v", s)
			}
			data, merr := s.MarshalJSON()
			if merr != nil {
				t.Fatalf("accepted spec fails to marshal: %v", merr)
			}
			if _, lerr := LoadSpec(bytes.NewReader(data)); lerr != nil {
				t.Fatalf("accepted spec fails to reload: %v", lerr)
			}
			return
		}
		for _, sentinel := range sentinels {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("rejection not matchable to a named error: %v", err)
	})
}
