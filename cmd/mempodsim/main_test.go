package main

import (
	"strings"
	"testing"

	"repro"
)

// TestCompareOrder pins the registry-derived -compare column set: the TLM
// normalization base leads, every migration mechanism (including Migrant)
// follows in registry order, HBM-only closes, and DDR-only stays out.
func TestCompareOrder(t *testing.T) {
	order := compareOrder()
	if len(order) == 0 || order[0] != mempod.MechTLM {
		t.Fatalf("compare order %v does not start with TLM", order)
	}
	if order[len(order)-1] != mempod.MechHBMOnly {
		t.Errorf("compare order %v does not end with HBM-only", order)
	}
	seen := map[mempod.Mechanism]int{}
	for _, m := range order {
		seen[m]++
		if seen[m] > 1 {
			t.Errorf("mechanism %s repeated in %v", m, order)
		}
	}
	for _, want := range []mempod.Mechanism{mempod.MechMemPod, mempod.MechHMA,
		mempod.MechTHM, mempod.MechCAMEO, mempod.MechMigrant} {
		if seen[want] == 0 {
			t.Errorf("mechanism %s missing from compare order %v", want, order)
		}
	}
	if seen[mempod.MechDDROnly] != 0 {
		t.Errorf("DDR-only must not appear in compare order %v", order)
	}
	// Registry-driven: every mechanism but DDR-only appears.
	if len(order) != len(mempod.Mechanisms())-1 {
		t.Errorf("compare order has %d mechanisms, registry has %d (expect registry-1)",
			len(order), len(mempod.Mechanisms()))
	}
}

// TestValidMechanism checks the pre-flight -mech validation: registry names
// pass, and an unknown name's error names both the typo and the valid set.
func TestValidMechanism(t *testing.T) {
	for _, m := range mempod.Mechanisms() {
		if err := validMechanism(string(m)); err != nil {
			t.Errorf("registry mechanism %s rejected: %v", m, err)
		}
	}
	err := validMechanism("MemPodd")
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "MemPodd") {
		t.Errorf("error %q does not name the bad mechanism", msg)
	}
	for _, m := range mempod.Mechanisms() {
		if !strings.Contains(msg, string(m)) {
			t.Errorf("error %q does not list valid mechanism %s", msg, m)
		}
	}
}

// TestParseSpecPair covers the -spec FAST+SLOW syntax: empty keeps the
// defaults, either side may be blank, malformed values and unknown preset
// names fail with errors that list the registry.
func TestParseSpecPair(t *testing.T) {
	fast, slow, err := parseSpecPair("")
	if err != nil || fast != "" || slow != "" {
		t.Errorf("empty -spec: got (%q, %q, %v)", fast, slow, err)
	}

	fast, slow, err = parseSpecPair("HBM2+DDR5-4800")
	if err != nil || fast != "HBM2" || slow != "DDR5-4800" {
		t.Errorf("HBM2+DDR5-4800: got (%q, %q, %v)", fast, slow, err)
	}

	fast, slow, err = parseSpecPair("+NVM")
	if err != nil || fast != "" || slow != "NVM" {
		t.Errorf("+NVM: got (%q, %q, %v)", fast, slow, err)
	}

	if _, _, err = parseSpecPair("HBM2"); err == nil {
		t.Error("missing '+' accepted")
	} else if !strings.Contains(err.Error(), "FAST+SLOW") {
		t.Errorf("format error %q does not describe the syntax", err)
	}

	_, _, err = parseSpecPair("HBM+GDDR7")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "GDDR7") {
		t.Errorf("error %q does not name the bad preset", msg)
	}
	for _, name := range mempod.Specs() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid preset %s", msg, name)
		}
	}
}
