package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro"
)

// TestGenerateReplaysUnderOpenTrace round-trips tracegen's output through
// the facade's file opener: the opened trace must hold exactly the
// requests the workload generates, under the workload's name.
func TestGenerateReplaysUnderOpenTrace(t *testing.T) {
	const name, requests, seed = "mix5", 5000, 9
	out := filepath.Join(t.TempDir(), name+".mps1")
	if err := generate(name, requests, seed, out); err != nil {
		t.Fatal(err)
	}
	got, err := mempod.OpenTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want, err := mempod.RecordTrace(name, requests, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	if got.Name() != name || got.Requests() != requests {
		t.Fatalf("opened %q with %d requests, want %q with %d", got.Name(), got.Requests(), name, requests)
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := got.Save(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Fatal("tracegen's trace differs from the workload's generated requests")
	}
	if err := inspectTrace(out); err != nil {
		t.Fatalf("-inspect: %v", err)
	}
}
