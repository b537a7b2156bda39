// Command perfbench is the repository's benchmark. It times what users of
// the simulator wait for — a whole Quick-scale experiment set, long trace
// replays, warm re-runs from a result store and a distributed sweep — end
// to end, checks every simulated output against reference digests, and in
// a separate traced run (-trace 1) attributes host time to the
// repository's modules by timing calls into their public functions.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload paper-quick --seed 42 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//	bash perfbench/run.sh -write-ref perfbench/testdata/ref_seed42.json
//
// Each workload runs in its own process. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// lines before it are a human-readable report: the framing, the run's
// environment record, every metric with its unit, and (off the default
// seed) the output digests for comparing two builds on a held-out seed.
// Each run also leaves a record with its environment, and a traced run
// its spans, under .bench_build/results.
//
// Correctness: every simulated cell's result (every field, migration
// counters included) and every rendered table is digested. At the
// default seed the digests must equal testdata/ref_seed42.json
// (regenerate it with -write-ref, as above, only after an intended change
// of simulated behaviour); off it, repeated outputs must agree within the run. A cell
// that errors or mismatches counts in "failed" out of "attempted".
//
// Notes on the metrics (see metrics.go for the lists):
//   - Every end-to-end metric is reported on every workload. The replay
//     cell times per mechanism are therefore per-layer metrics
//     (mempod.cell_ms.<mech>); replay-long's untraced report prints their
//     medians with sample counts too.
//   - On paper-quick-warm nothing simulates: sim_mreq_per_s there counts
//     the requests of the cells served from the store.
//   - A traced run reports the layers its workload does not exercise as 0
//     (no distrib calls on paper-quick, for example). distrib.renew_us is
//     0 when no lease lived long enough to be renewed.
//   - mech.build_us.<mech> is the steady-state construction cost: after
//     the first build, mechanisms reuse pooled tables (mech.Release).
//   - distrib.checkpoint_ms times extra Coordinator.Checkpoint calls made
//     while cells complete; the final one inside Wait has nothing new to
//     write.
//   - sim.leftover_frac.<mech> is 1 − (replay + DRAM kernel × accesses
//     per request + stats, plus MEA observe and hot-set work for MemPod)
//     ÷ the serial engine time; it can be negative when the isolated
//     layers run slower than they do inside the engine.
//   - The facade does not take a seed for experiments, so paper-quick
//     and paper-quick-warm call exp.ConfigFor and Config.Experiment, the
//     calls RunExperimentOpts makes, with the run's seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	root     string  // repository root: sources, and .bench_build for scratch
	workload string  // workload name, or "all"
	seed     int64   // trace seed; the default seed is checked against references
	seconds  float64 // how long the timed part of a run measures
	trace    bool    // traced run: per-layer metrics instead of end-to-end ones
	writeRef string  // when set, regenerate the reference digests into this file

	// small shrinks every workload for the package's tests: one set-up,
	// one timed pass and a short replay trace.
	small bool
}

func defaultOptions() options {
	return options{
		workload: "all",
		seed:     defaultSeed,
		seconds:  10,
	}
}

// workloadFunc runs one workload and fills the run's outcome.
type workloadFunc func(b *bench) error

// workloads maps each workload name to its implementation, in the order
// "all" runs them.
var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"paper-quick", runPaperQuick},
	{"replay-long", runReplayLong},
	{"paper-quick-warm", runPaperQuickWarm},
	{"sweep-distrib", runSweepDistrib},
}

func main() {
	opt := defaultOptions()
	flag.StringVar(&opt.root, "root", ".", "repository root (scratch files go to its .bench_build)")
	flag.StringVar(&opt.workload, "workload", opt.workload, "workload to run, or all")
	flag.Int64Var(&opt.seed, "seed", opt.seed, "trace seed")
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "seconds the timed part measures")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&opt.writeRef, "write-ref", "", "regenerate the default-seed reference digests into this file")
	flag.Parse()
	opt.trace = *traceFlag == 1

	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options, stdout io.Writer) error {
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return err
	}
	opt.root = root
	if opt.writeRef != "" {
		return writeReference(opt)
	}
	if opt.workload == "all" {
		return runAll(opt, stdout)
	}
	fn := lookupWorkload(opt.workload)
	if fn == nil {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	b, err := newBench(opt)
	if err != nil {
		return err
	}
	defer b.cleanup()
	printHeader(stdout, b)
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	return b.finish(stdout)
}

func lookupWorkload(name string) workloadFunc {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload, each in a child process of this binary so
// peak memory and warm caches never leak from one workload into the next.
// It relays each child's report and ends with one JSON line whose metrics
// are prefixed by workload name.
func runAll(opt options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		var out strings.Builder
		traceArg := "0"
		if opt.trace {
			traceArg = "1"
		}
		cmd := exec.Command(self, "-root", opt.root, "-workload", w.name,
			"-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds), "-trace", traceArg)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: parse result: %w", w.name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, v := range r.Metrics {
			all.Metrics[w.name+"."+name] = v
		}
	}
	return writeJSONLine(stdout, all)
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// bench is one workload run in progress: its options, scratch directory,
// tracer, output checker and the metric values it has measured.
type bench struct {
	opt    options
	env    environment
	work   string  // per-run scratch directory, removed at exit
	tr     *tracer // nil on untraced runs
	check  *checker
	values map[string]float64
	// info lines are printed in the report, e.g. sample counts.
	info []string
}

func newBench(opt options) (*bench, error) {
	ref, err := loadReference(opt)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(opt.root, ".bench_build", "work", fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		opt:    opt,
		env:    readEnvironment(opt),
		work:   work,
		check:  newChecker(ref),
		values: map[string]float64{},
	}
	if opt.trace {
		b.tr = newTracer(fmt.Sprintf("%s/seed%d/%d", opt.workload, opt.seed, os.Getpid()))
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.work) }

// scratch returns a fresh, empty directory under the run's scratch space.
func (b *bench) scratch(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// setupReps is how many set-ups a run measures for the median setup_s.
func (b *bench) setupReps(n int) int {
	if b.opt.small || b.tr != nil {
		return 1
	}
	return n
}

// morePasses reports whether the timed part needs another pass: until
// the deadline, and at least three passes so medians have a middle.
func (b *bench) morePasses(done int, deadline time.Time) bool {
	if b.opt.small {
		return done < 1
	}
	return done < 3 || time.Now().Before(deadline)
}

// phase starts a set-up or a pass from a collected heap, so garbage left
// by the previous phase neither costs this one collector time nor adds to
// its memory peak.
func phase() { runtime.GC() }

func (b *bench) infof(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

// finish prints the report and the result line, writes the run record
// (and, when traced, the spans) under .bench_build/results.
func (b *bench) finish(stdout io.Writer) error {
	b.set("peak_rss_mb", peakRSSMB())
	defs := endToEnd
	if b.opt.trace {
		defs = perLayer()
	}
	res := result{
		Correct:   b.check.ok(),
		Attempted: b.check.attempted,
		Failed:    b.check.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			if !b.opt.trace {
				missing = append(missing, d.Name)
				continue
			}
			// A layer the workload does not exercise did no work.
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("no cells attempted")
	}

	for _, line := range b.info {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, p := range b.check.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
	if b.check.ref == nil {
		for _, line := range b.check.digestLines() {
			fmt.Fprintln(stdout, "# digest", line)
		}
	}
	if b.tr != nil {
		for _, line := range b.tr.moduleSummary() {
			fmt.Fprintln(stdout, "#", line)
		}
	}
	fmt.Fprintf(stdout, "# %s: %d/%d cells failed, correct=%v\n", b.opt.workload, res.Failed, res.Attempted, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "# %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if err := b.writeRecord(res); err != nil {
		return err
	}
	return writeJSONLine(stdout, res)
}

// writeRecord keeps the run's result with its environment, and the spans
// of a traced run, under .bench_build/results so runs made at different
// core counts or on different builds are never mistaken for each other.
func (b *bench) writeRecord(res result) error {
	dir := filepath.Join(b.opt.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	base := fmt.Sprintf("%s-seed%d-trace%v-%s", b.opt.workload, b.opt.seed, b.opt.trace, stamp)
	rec := struct {
		Workload string            `json:"workload"`
		Env      environment       `json:"env"`
		Result   result            `json:"result"`
		Digests  map[string]string `json:"digests"`
		Info     []string          `json:"info"`
	}{b.opt.workload, b.env, res, b.check.seen, b.info}
	if err := writeJSONFile(filepath.Join(dir, base+".json"), rec); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	return writeJSONFile(filepath.Join(dir, base+".spans.json"), b.tr.export())
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printHeader states what the benchmark does and does not claim, and the
// environment the numbers belong to.
func printHeader(w io.Writer, b *bench) {
	mode := "untraced end-to-end run"
	if b.opt.trace {
		mode = "traced per-layer run"
	}
	fmt.Fprintf(w, "# perfbench %s, workload %s, seed %d, %gs measured\n", mode, b.opt.workload, b.opt.seed, b.opt.seconds)
	fmt.Fprintln(w, "# Measures host time only: how long this simulator takes on this machine.")
	fmt.Fprintln(w, "# The simulated memory model is not validated against hardware, so no")
	fmt.Fprintln(w, "# simulated speed-up or error figure is given or implied.")
	fmt.Fprintln(w, "# Every simulated cell starts with empty fast memory: identity page mapping, no warm-up.")
	fmt.Fprintf(w, "# env: %s\n", b.env)
}
