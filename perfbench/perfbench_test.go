package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
)

// sampleResult has every field set to a distinct non-zero value.
func sampleResult() stats.Result {
	return stats.Result{
		Workload: "mix5", Mechanism: "MemPod",
		Requests: 1000, TotalStall: 123456 * clock.Nanosecond, Span: 98765 * clock.Nanosecond,
		FastAccesses: 700, SlowAccesses: 400, FastActivations: 90, SlowActivations: 80,
		FastRowHitRate: 0.25, SlowRowHitRate: 0.5, RowHitRate: 0.375,
		Mig: mech.MigStats{Intervals: 3, PageMigrations: 4, LineMigrations: 5, BytesMoved: 6,
			CacheHits: 7, CacheMisses: 8, LockStalls: 9, DroppedMigrations: 10, GlobalMoveLines: 11},
	}
}

// TestDigestCoversEveryResultField perturbs each field of a result, the
// migration counters included, and requires the digest check to fail.
func TestDigestCoversEveryResultField(t *testing.T) {
	base := sampleResult()
	want := resultDigest(base)
	var perturb func(v reflect.Value, path string)
	perturb = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				perturb(f, name+".")
				continue
			}
			r := sampleResult()
			rf := reflect.ValueOf(&r).Elem().FieldByIndex(fieldIndex(reflect.TypeOf(r), name))
			switch rf.Kind() {
			case reflect.String:
				rf.SetString(rf.String() + "x")
			case reflect.Float64:
				rf.SetFloat(rf.Float() + 1e-12)
			case reflect.Int64:
				rf.SetInt(rf.Int() + 1)
			case reflect.Uint64:
				rf.SetUint(rf.Uint() + 1)
			default:
				t.Fatalf("field %s: unhandled kind %s", name, rf.Kind())
			}
			c := newChecker(&reference{Replay: map[string]string{"MemPod": want}})
			c.cell("replay", "MemPod", resultDigest(r), nil)
			if c.failed != 1 || c.ok() {
				t.Errorf("perturbing %s passed the digest check", name)
			}
		}
	}
	perturb(reflect.ValueOf(base), "")

	c := newChecker(&reference{Replay: map[string]string{"MemPod": want}})
	c.cell("replay", "MemPod", resultDigest(base), nil)
	if !c.ok() || c.attempted != 1 {
		t.Fatalf("unperturbed result failed: %v", c.problems)
	}
}

func fieldIndex(t reflect.Type, path string) []int {
	var idx []int
	for _, name := range strings.Split(path, ".") {
		f, _ := t.FieldByName(name)
		idx = append(idx, f.Index...)
		t = f.Type
	}
	return idx
}

// TestCheckerWithoutReference requires repeated outputs to agree when no
// reference digests exist.
func TestCheckerWithoutReference(t *testing.T) {
	c := newChecker(nil)
	c.cell("replay", "TLM", "aa", nil)
	c.cell("replay", "TLM", "aa", nil)
	if !c.ok() {
		t.Fatalf("agreeing digests failed: %v", c.problems)
	}
	c.cell("replay", "TLM", "bb", nil)
	if c.ok() || c.failed != 1 || c.attempted != 3 {
		t.Fatalf("disagreeing digest passed: failed=%d attempted=%d", c.failed, c.attempted)
	}
}

// TestSelfTimes checks self time on a synthetic span tree with
// overlapping children and a child running past its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Parent: 3, Name: "b1", Start: 35, End: 40},
		{ID: 7, Parent: 3, Name: "b2", Start: 38, End: 45}, // overlaps b1
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30 - 10, 4: 5, 5: 30, 6: 5, 7: 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	tr := newTracer("test")
	root := tr.begin(0, "x.root", "")
	tr.end(tr.begin(root, "y.child", ""))
	tr.end(root)
	if s := tr.export(); len(s) != 2 || s[1].Parent != s[0].ID || s[0].Trace != "test" {
		t.Fatalf("spans %+v", s)
	}
	var none *tracer
	if id := none.begin(0, "x", ""); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(0)
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks every metric name and unit and
// that BENCHMARK.json declares exactly the workloads and metrics the
// program reports.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !namePattern.MatchString(d.Name) || !unitPattern.MatchString(d.Unit) {
			t.Errorf("bad metric %+v", d)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better=%q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("%s named twice", d.Name)
		}
		seen[d.Name] = true
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload once untraced and
// once traced at a small scale, off the default seed, and checks the
// result line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				opt := defaultOptions()
				opt.root = t.TempDir()
				opt.workload = w
				opt.seed = 7
				opt.seconds = 0
				opt.trace = traced
				opt.small = true
				var out strings.Builder
				if err := run(opt, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or wrong unit", d.Name)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}
