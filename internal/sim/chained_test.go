package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/mech"
	"repro/internal/trace"
	"repro/internal/workload"
)

// update regenerates testdata/chained.golden instead of comparing against
// it. The golden was generated while the chained configurations still ran
// a separate per-request access path, and must not change:
//
//	go test ./internal/sim -run TestChainedConfigsGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestChainedConfigsGolden pins the full Result of every chained
// configuration (chainedMechanisms) on mix5, 60k requests, seed 11, at
// the default, a narrow and an unlimited window. A bookkeeping read or
// LLP probe that lands on a channel out of order against the demand
// columns moves these numbers.
func TestChainedConfigsGolden(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	snap := trace.Record(w.MustStream(n, 11), n)
	defer snap.Release()

	var buf bytes.Buffer
	for _, mc := range mechanisms {
		if !chainedMechanisms[mc.name] {
			continue
		}
		for _, window := range []int{0, 32, -1} {
			b := newBackend()
			m := mc.build(b)
			e := New(b, m)
			e.Window = window
			res, err := e.Run(w.Name, snap.DecodedStream(&b.Geom))
			mech.Release(m)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s/window=%d\n", mc.name, window)
			writeFields(&buf, "", reflect.ValueOf(res))
		}
	}
	got := buf.String()

	path := filepath.Join("testdata", "chained.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("chained configurations drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// writeFields prints one "name=value" line per leaf field of v, nested
// structs flattened with dotted names, numbers in full precision.
func writeFields(buf *bytes.Buffer, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name, f := prefix+v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			writeFields(buf, name+".", f)
		case reflect.Float64:
			fmt.Fprintf(buf, "  %s=%s\n", name, strconv.FormatFloat(f.Float(), 'g', -1, 64))
		case reflect.Int64:
			fmt.Fprintf(buf, "  %s=%d\n", name, f.Int())
		case reflect.Uint64:
			fmt.Fprintf(buf, "  %s=%d\n", name, f.Uint())
		default:
			fmt.Fprintf(buf, "  %s=%q\n", name, f.String())
		}
	}
}
