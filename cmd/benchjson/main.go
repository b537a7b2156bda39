// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark numbers can be archived per commit and diffed
// across runs (CI uploads results/bench.json as a workflow artifact).
//
// Usage:
//
//	go test -run='^$' -bench=. ./... | benchjson -o results/bench.json
//	benchjson -i bench.txt -o results/bench.json
//	benchjson -diff old.json new.json -threshold 10
//
// Non-benchmark lines (test framework chatter, PASS/ok trailers) are
// ignored, so the raw `go test` stream can be piped in unfiltered.
// Rows repeated by `go test -count N` fold into one row per benchmark:
// each metric is the median of the runs, and the row keeps the ns/op
// min and max (see Fold).
//
// The -diff mode compares two archived reports: for every benchmark
// present in both, it prints the ns/op delta and exits non-zero when any
// regressed by more than -threshold percent (default 10). Benchmarks
// present on only one side are reported informationally and never fail
// the comparison — renames must not masquerade as regressions.
//
// With -hard name-regexp, only regressions whose benchmark name matches
// the regexp fail the diff; the rest print as "warn" and keep exit code
// 0. CI uses this to hard-gate the stable serial matrix cell while the
// parallel variants — pure scheduler noise on a 1-CPU runner — stay
// warn-only.
//
// A benchmark that ran at a different GOMAXPROCS than its reference
// entry is not compared: it prints as "procs-mismatch", and fails the
// diff when it is hard-gated — a gate must compare like with like, not
// pass because the run and the reference disagree on the machine shape.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one measured benchmark result line.
type Benchmark struct {
	// Pkg is the import path the benchmark ran in (from the preceding
	// "pkg:" header line; empty if the stream had none).
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark name with the -<procs> GOMAXPROCS suffix
	// stripped, e.g. "BenchmarkMatrix/j=4".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the raw name (1 if absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the measurement.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op", plus any
	// custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
	// Runs is the number of result lines folded into this row (Fold);
	// NsMin and NsMax are their ns/op extremes. Zero in an unfolded row.
	Runs  int     `json:"runs,omitempty"`
	NsMin float64 `json:"ns_min,omitempty"`
	NsMax float64 `json:"ns_max,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	// The diff mode's natural argument shape — files between flags — is
	// not stdlib-flag-parseable, so it is dispatched before flag.Parse.
	if len(os.Args) > 1 && os.Args[1] == "-diff" {
		os.Exit(runDiff(os.Args[2:], os.Stdout))
	}
	var (
		in  = flag.String("i", "", "input file (default stdin)")
		out = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	Fold(rep)
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// Parse reads a `go test -bench` text stream and extracts every
// benchmark result line, carrying the goos/goarch/cpu/pkg headers along.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// Fold merges the rows of each benchmark (same pkg, name and procs), as
// `go test -count N` prints them, into one row at the position of its
// first: every metric becomes the median of the runs that report it
// (the mean of the middle two for an even count), Iterations sums b.N,
// Runs counts the rows, and NsMin/NsMax keep the ns/op spread.
func Fold(rep *Report) {
	var order []benchKey
	runs := map[benchKey][]Benchmark{}
	for _, b := range rep.Benchmarks {
		k := benchKey{b.Pkg, b.Name, b.Procs}
		if _, seen := runs[k]; !seen {
			order = append(order, k)
		}
		runs[k] = append(runs[k], b)
	}
	folded := make([]Benchmark, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		row := Benchmark{Pkg: k.Pkg, Name: k.Name, Procs: k.Procs, Runs: len(rs), Metrics: map[string]float64{}}
		values := map[string][]float64{}
		for _, r := range rs {
			row.Iterations += r.Iterations
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		for unit, vs := range values {
			slices.Sort(vs)
			row.Metrics[unit] = median(vs)
		}
		if ns := values["ns/op"]; len(ns) > 0 {
			row.NsMin, row.NsMax = ns[0], ns[len(ns)-1]
		}
		folded = append(folded, row)
	}
	rep.Benchmarks = folded
}

// median returns the median of sorted, non-empty vs.
func median(vs []float64) float64 {
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   20   51700000 ns/op   1234 B/op   56 allocs/op
//
// ok=false (without error) means the line is not a result — e.g. the bare
// "BenchmarkFoo" name echo that precedes output when -v is set.
func parseLine(line string) (Benchmark, bool, error) {
	f := strings.Fields(line)
	// A result line has the name, b.N, and at least one value-unit pair.
	if len(f) < 4 || (len(f)-2)%2 != 0 {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: f[0], Procs: 1, Metrics: make(map[string]float64, (len(f)-2)/2)}
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // name-like line, not a result
	}
	b.Iterations = n
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad value %q in line %q", f[i], line)
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true, nil
}

// benchKey identifies a benchmark across reports.
type benchKey struct {
	Pkg   string
	Name  string
	Procs int
}

// Delta is one benchmark's ns/op movement between two reports.
type Delta struct {
	Key benchKey
	// Old and New are ns/op in the respective reports.
	Old, New float64
	// Pct is the relative change in percent: positive means slower.
	Pct float64
	// Regressed means Pct exceeds the caller's threshold.
	Regressed bool
	// ProcsMismatch means the reference holds the benchmark only at
	// another GOMAXPROCS (OldProcs; Key.Procs is the new run's): the
	// numbers are not compared, and Pct and Regressed stay zero.
	ProcsMismatch bool
	OldProcs      int
}

// Diff compares ns/op for every benchmark present in both reports.
// A benchmark regressed when its ns/op grew by strictly more than
// thresholdPct percent; a zero-ns/op baseline against a nonzero new value
// is always a regression (Pct +Inf) — a comparison with no defined
// relative change must not pass silently. Deltas keep newRep's benchmark
// order; onlyOld and onlyNew list benchmarks without a comparable
// counterpart — missing on the other side, or missing the ns/op metric
// entirely — and never fail the diff. A new benchmark whose reference
// exists only at another GOMAXPROCS pairs with it as a ProcsMismatch
// delta, uncompared.
func Diff(oldRep, newRep *Report, thresholdPct float64) (deltas []Delta, onlyOld, onlyNew []string) {
	type nameKey struct{ Pkg, Name string }
	oldNs := make(map[benchKey]float64, len(oldRep.Benchmarks))
	oldProcs := make(map[nameKey]int, len(oldRep.Benchmarks))
	seen := make(map[benchKey]bool, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		k := benchKey{b.Pkg, b.Name, b.Procs}
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			// No ns/op recorded (custom-metric-only entry): incomparable,
			// report informationally below via the unpaired path.
			continue
		}
		oldNs[k] = ns
		seen[k] = false
		if _, dup := oldProcs[nameKey{b.Pkg, b.Name}]; !dup {
			oldProcs[nameKey{b.Pkg, b.Name}] = b.Procs
		}
	}
	for _, b := range newRep.Benchmarks {
		k := benchKey{b.Pkg, b.Name, b.Procs}
		ns, hasNs := b.Metrics["ns/op"]
		old, ok := oldNs[k]
		if !ok && hasNs {
			if p, other := oldProcs[nameKey{b.Pkg, b.Name}]; other {
				ref := benchKey{b.Pkg, b.Name, p}
				seen[ref] = true
				deltas = append(deltas, Delta{Key: k, Old: oldNs[ref], New: ns, ProcsMismatch: true, OldProcs: p})
				continue
			}
		}
		if !ok || !hasNs {
			onlyNew = append(onlyNew, k.Name)
			continue
		}
		seen[k] = true
		d := Delta{Key: k, Old: old, New: ns}
		switch {
		case old > 0:
			d.Pct = (d.New - d.Old) / d.Old * 100
		case d.New > 0:
			d.Pct = math.Inf(1)
		}
		d.Regressed = d.Pct > thresholdPct
		deltas = append(deltas, d)
	}
	for _, b := range oldRep.Benchmarks {
		k := benchKey{b.Pkg, b.Name, b.Procs}
		if paired, comparable := seen[k]; !comparable || !paired {
			onlyOld = append(onlyOld, k.Name)
		}
	}
	return deltas, onlyOld, onlyNew
}

// runDiff implements the -diff CLI mode and returns the process exit code:
// 0 when no benchmark regressed past the threshold, 1 otherwise, 2 on
// usage or file errors. Arguments are the two report paths in old, new
// order, with -threshold <pct> and -hard <name-regexp> accepted anywhere
// among them. Without -hard, every regression fails the diff; with it,
// only regressions whose name matches the regexp do — the rest are
// reported as warnings so a gate can pin its one stable benchmark while
// still surfacing movement elsewhere.
func runDiff(args []string, w io.Writer) int {
	threshold := 10.0
	var hard *regexp.Regexp
	var files []string
	compileHard := func(expr string) bool {
		re, err := regexp.Compile(expr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -hard regexp %q: %v\n", expr, err)
			return false
		}
		hard = re
		return true
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			i++
			if i >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -threshold needs a value")
				return 2
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad threshold %q\n", args[i])
				return 2
			}
			threshold = v
		case strings.HasPrefix(a, "-threshold="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(a, "-threshold="), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad threshold %q\n", a)
				return 2
			}
			threshold = v
		case a == "-hard" || a == "--hard":
			i++
			if i >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -hard needs a name regexp")
				return 2
			}
			if !compileHard(args[i]) {
				return 2
			}
		case strings.HasPrefix(a, "-hard="):
			if !compileHard(strings.TrimPrefix(a, "-hard=")) {
				return 2
			}
		default:
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json new.json [-threshold pct] [-hard name-regexp]")
		return 2
	}
	oldRep, err := loadReport(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	deltas, onlyOld, onlyNew := Diff(oldRep, newRep, threshold)
	failed := false
	for _, d := range deltas {
		if d.ProcsMismatch {
			note := "not compared"
			if hard == nil || hard.MatchString(d.Key.Name) {
				note, failed = "not compared; gated, fails", true
			}
			fmt.Fprintf(w, "procs-mismatch %s: reference procs=%d, run procs=%d (%s)\n",
				d.Key.Name, d.OldProcs, d.Key.Procs, note)
			continue
		}
		mark := "ok  "
		if d.Regressed {
			if hard == nil || hard.MatchString(d.Key.Name) {
				mark = "FAIL"
				failed = true
			} else {
				mark = "warn"
			}
		}
		fmt.Fprintf(w, "%s %-40s %14.0f -> %14.0f ns/op  %+6.1f%%\n",
			mark, d.Key.Name, d.Old, d.New, d.Pct)
	}
	for _, n := range onlyOld {
		fmt.Fprintf(w, "gone %s (only in %s)\n", n, files[0])
	}
	for _, n := range onlyNew {
		fmt.Fprintf(w, "new  %s (only in %s)\n", n, files[1])
	}
	if failed {
		fmt.Fprintf(w, "regression: at least one gated benchmark slowed >%g%% or ran at another procs than its reference\n", threshold)
		return 1
	}
	return 0
}

// loadReport reads a JSON report written by this tool.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
