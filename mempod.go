package mempod

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/migrant"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mechanism selects the memory-management scheme for a run.
type Mechanism string

// The mechanisms and reference configurations of the paper's evaluation.
const (
	MechMemPod  Mechanism = "MemPod"   // the paper's contribution (§5)
	MechHMA     Mechanism = "HMA"      // OS-driven interval migration baseline
	MechTHM     Mechanism = "THM"      // segment/competing-counter baseline
	MechCAMEO   Mechanism = "CAMEO"    // line-granularity event-swap baseline
	MechMigrant Mechanism = "Migrant"  // OS/VM-assisted fault-threshold migration
	MechTLM     Mechanism = "TLM"      // two-level memory, no migration
	MechHBMOnly Mechanism = "HBM-only" // 9 GB of stacked memory, no DDR
	MechDDROnly Mechanism = "DDR-only" // 9 GB of off-chip memory, no HBM
)

// Mechanisms lists every supported Mechanism value.
func Mechanisms() []Mechanism {
	return []Mechanism{MechMemPod, MechHMA, MechTHM, MechCAMEO, MechMigrant, MechTLM, MechHBMOnly, MechDDROnly}
}

// Specs lists the memory-spec preset names accepted by Options.FastSpec
// and Options.SlowSpec (aliases like "DDR4" and "NVM" also resolve; see
// internal/dram.Preset).
func Specs() []string { return dram.PresetNames() }

// CheckSpec validates a memory-spec preset name or alias against the
// registry; the error for an unknown name lists the valid options.
func CheckSpec(name string) error {
	_, err := dram.Preset(name)
	return err
}

// Duration re-exports the simulator's femtosecond time unit for options.
type Duration = clock.Duration

// Time-unit constants for building Options durations.
const (
	Nanosecond  = clock.Nanosecond
	Microsecond = clock.Microsecond
	Millisecond = clock.Millisecond
)

// MemPodOptions tunes the MemPod mechanism (§6.3.1 design space).
// Zero values select the paper's design point.
type MemPodOptions struct {
	Interval    Duration // epoch length (default 50 µs)
	Counters    int      // MEA entries per pod (default 64)
	CounterBits int      // saturating counter width (default 2)
	CacheBytes  int      // remap-cache capacity; 0 disables the cache model
	// UseFullCounters swaps the MEA unit for exact per-page counters —
	// the tracking ablation, not a buildable design point.
	UseFullCounters bool
}

// MigrantOptions tunes the OS-assisted Migrant mechanism. Zero values
// select its defaults (100 µs epoch, threshold 8, 2 µs fault cost).
type MigrantOptions struct {
	Epoch        Duration // A-bit harvest epoch
	HotThreshold int      // faults-in when an epoch's touch count crosses this
	FaultCost    Duration // minor-fault handling cost charged before the copy
}

// HMAOptions tunes the HMA baseline. Zero values select the paper's
// parameters (100 ms interval, 7 ms sort), which require correspondingly
// long traces; see exp.Config for the scaled experiment defaults.
type HMAOptions struct {
	Interval      Duration
	SortStall     Duration
	MaxMigrations int
	CacheBytes    int
}

// Options configures one simulation run.
type Options struct {
	// Mechanism picks the management scheme (default MechMemPod).
	Mechanism Mechanism
	// Requests is the trace length (default 500 000).
	Requests int
	// Seed makes the run reproducible (default 42).
	Seed int64
	// FutureMemories selects the §6.3.4 technology point: 4 GHz HBM and
	// DDR4-2400 instead of the baseline parts.
	FutureMemories bool
	// FastSpec/SlowSpec name dram preset specs (see Specs()) for the two
	// memory levels; empty selects the paper pair (HBM + DDR4-1600), or
	// the future pair when FutureMemories is set. Naming a spec together
	// with FutureMemories is an error.
	FastSpec string
	SlowSpec string
	// Window caps outstanding requests (default sim.DefaultWindow;
	// negative = unlimited).
	Window int
	// Results, when non-nil, memoizes the run: if the cache holds this
	// exact cell (same mechanism config, specs, layout, window and trace
	// identity — see ResultCache), the stored result is returned without
	// simulating, and fresh results are published for later runs. Custom
	// workload definitions (RunCustom) are never cached — their names do
	// not pin their content.
	Results *ResultCache

	MemPod  MemPodOptions
	HMA     HMAOptions
	Migrant MigrantOptions
}

// Result is the outcome of a run. AMMAT() reports the paper's headline
// metric in nanoseconds.
type Result = stats.Result

// Workloads returns the names of the paper's 27 workloads: 15 homogeneous
// benchmark names plus mix1..mix12 (Table 3).
func Workloads() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

// withDefaults fills the zero-value option defaults shared by every entry
// point.
func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		o.Requests = 500_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Mechanism == "" {
		o.Mechanism = MechMemPod
	}
	return o
}

// specs resolves the run's memory specs: named presets when given,
// otherwise the paper pair or the §6.3.4 future pair.
func (o Options) specs() (fast, slow dram.Spec, err error) {
	if o.FastSpec != "" || o.SlowSpec != "" {
		if o.FutureMemories {
			return fast, slow, fmt.Errorf("mempod: FutureMemories cannot be combined with named specs")
		}
		fastName, slowName := o.FastSpec, o.SlowSpec
		if fastName == "" {
			fastName = "HBM"
		}
		if slowName == "" {
			slowName = "DDR4-1600"
		}
		if fast, err = dram.Preset(fastName); err != nil {
			return fast, slow, err
		}
		slow, err = dram.Preset(slowName)
		return fast, slow, err
	}
	if o.FutureMemories {
		return dram.HBMOverclocked(), dram.DDR4_2400(), nil
	}
	return dram.HBM(), dram.DDR4_1600(), nil
}

// layout returns the address layout the mechanism runs on: the standard
// two-level geometry, or a single-level 9 GB geometry for the static
// one-memory baselines.
func (o Options) layout() addr.Layout {
	switch o.Mechanism {
	case MechHBMOnly:
		return addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
	case MechDDROnly:
		return addr.Layout{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4}
	}
	return addr.DefaultLayout()
}

// runSnapshot builds the memory system and mechanism selected by o and
// replays the snapshot through it, over the snapshot's decoded columns
// for the run's layout — the same path every experiment cell takes. Every
// entry point — generated workloads, custom definitions, recorded trace
// replays — funnels through here, via cachedRun when the run is
// memoizable.
func runSnapshot(name string, snap *trace.Snapshot, o Options) (Result, error) {
	fast, slow, err := o.specs()
	if err != nil {
		return Result{}, err
	}
	sys, err := memsys.New(o.layout(), fast, slow)
	if err != nil {
		return Result{}, err
	}
	backend := mech.NewBackend(sys)
	m, err := buildMechanism(o, backend)
	if err != nil {
		return Result{}, err
	}
	// Recycle the mechanism's pooled tables once the run's stats are out,
	// so back-to-back runs (mempodsim -compare) reuse allocations.
	defer mech.Release(m)
	engine := sim.New(backend, m)
	engine.Window = o.Window
	return engine.Run(name, snap.DecodedStream(&backend.Geom))
}

// runGenerated records a generated stream of o.Requests requests and
// replays the recording, releasing it afterwards.
func runGenerated(name string, s trace.Stream, o Options) (Result, error) {
	snap := trace.Record(s, o.Requests)
	defer snap.Release()
	return runSnapshot(name, snap, o)
}

// Run simulates one workload under one mechanism and returns its metrics.
// The workload is a benchmark name ("mcf"), a mix ("mix5"), per Workloads.
func Run(workloadName string, o Options) (Result, error) {
	w, err := lookupWorkload(workloadName)
	if err != nil {
		return Result{}, err
	}
	o = o.withDefaults()
	// Generated runs are keyed symbolically — the (name, length, seed)
	// recipe pins the exact request sequence — so a cache hit skips trace
	// generation too, and the stream is only built on a miss.
	id := cellIdentity{workload: w.Name, requests: o.Requests, seed: o.Seed, cacheable: true}
	return cachedRun(o, id, func() (Result, error) {
		s, err := w.Stream(o.Requests, o.Seed)
		if err != nil {
			return Result{}, err
		}
		return runGenerated(w.Name, s, o)
	})
}

// RunCustom is Run for a user-defined workload: def is the JSON custom
// workload definition documented in internal/workload (profiles plus an
// 8-core assignment; built-in benchmark names may be referenced).
func RunCustom(def io.Reader, o Options) (Result, error) {
	w, err := workload.LoadCustom(def)
	if err != nil {
		return Result{}, err
	}
	o = o.withDefaults()
	s, err := w.Stream(o.Requests, o.Seed)
	if err != nil {
		return Result{}, err
	}
	return runGenerated(w.Name, s, o)
}

// Trace is a recorded workload trace in the packed snapshot form: generate
// (or load) it once, then replay it under any number of mechanisms or
// option sets. Replays are bit-identical to the recorded generation and
// safe to run concurrently — each RunTrace takes its own cursor over the
// immutable snapshot.
type Trace struct {
	name string
	snap *trace.Snapshot
}

// RecordTrace generates workloadName's trace with the given length and
// seed (zero values select the Run defaults) and records it as a packed
// snapshot.
func RecordTrace(workloadName string, requests int, seed int64) (*Trace, error) {
	w, err := lookupWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return recordTrace(w.Name, w, requests, seed)
}

// RecordCustomTrace is RecordTrace for a JSON custom workload definition.
func RecordCustomTrace(def io.Reader, requests int, seed int64) (*Trace, error) {
	w, err := workload.LoadCustom(def)
	if err != nil {
		return nil, err
	}
	return recordTrace(w.Name, w, requests, seed)
}

// streamer abstracts the two workload kinds (built-in and custom) for
// recording; both expose the same Stream method.
type streamer interface {
	Stream(n int, seed int64) (trace.Stream, error)
}

func recordTrace(name string, w streamer, requests int, seed int64) (*Trace, error) {
	if requests <= 0 {
		requests = 500_000
	}
	if seed == 0 {
		seed = 42
	}
	s, err := w.Stream(requests, seed)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: trace.Record(s, requests)}, nil
}

// Name returns the workload name the trace was recorded from.
func (t *Trace) Name() string { return t.name }

// Requests returns the number of recorded requests.
func (t *Trace) Requests() int { return t.snap.Len() }

// Size returns the packed in-memory size of the trace in bytes.
func (t *Trace) Size() int { return t.snap.Size() }

// Save persists the trace in the packed snapshot file format, replayable
// across runs via ReadTrace (cmd/mempodsim's -trace-out/-trace-in).
func (t *Trace) Save(w io.Writer) error {
	return trace.WriteSnapshot(w, t.name, t.snap)
}

// ReadTrace loads a trace saved by Save.
func ReadTrace(r io.Reader) (*Trace, error) {
	snap, name, err := trace.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: snap}, nil
}

// OpenTrace opens a trace snapshot file saved by Save (or written by
// cmd/tracegen), reading the whole file once and decoding it exactly as
// ReadTrace does.
func OpenTrace(path string) (*Trace, error) {
	snap, name, err := trace.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: snap}, nil
}

// Close returns the trace's snapshot buffers for reuse by the next
// recording. The trace and any replay derived from it must not be used
// afterwards; Close is optional, as the garbage collector reclaims an
// unclosed trace.
func (t *Trace) Close() {
	if t.snap != nil {
		t.snap.Release()
		t.snap = nil
	}
}

// RunTrace replays a recorded trace under the mechanism selected by o.
// o.Requests and o.Seed are ignored — the trace already fixes the request
// sequence. With o.Results set, the trace is identified by its content
// fingerprint, so the same trace reloaded from a file in another process
// still hits its cached cells.
func RunTrace(t *Trace, o Options) (Result, error) {
	o = o.withDefaults()
	return cachedRun(o, traceIdentity(t, o), func() (Result, error) {
		return runSnapshot(t.name, t.snap, o)
	})
}

// mechConfig resolves the options into the mechanism's tag and fully
// populated config struct, without constructing anything. The (tag, cfg)
// pair is the mechanism's canonical identity: it parameterizes both
// buildMechanism and the result-cache key, so a run and its cache entry
// can never disagree about what was simulated. Static mechanisms have a
// nil config — the layout distinguishes them.
func (o Options) mechConfig() (tag string, cfg any, err error) {
	switch o.Mechanism {
	case MechMemPod:
		c := core.DefaultConfig()
		if o.MemPod.Interval > 0 {
			c.Interval = o.MemPod.Interval
		}
		if o.MemPod.Counters > 0 {
			c.Counters = o.MemPod.Counters
		}
		if o.MemPod.CounterBits > 0 {
			c.CounterBits = o.MemPod.CounterBits
		}
		c.CacheBytes = o.MemPod.CacheBytes
		c.UseFullCounters = o.MemPod.UseFullCounters
		return "mempod", c, nil
	case MechHMA:
		c := hma.DefaultConfig()
		if o.HMA.Interval > 0 {
			c.Interval = o.HMA.Interval
		}
		if o.HMA.SortStall > 0 {
			c.SortStall = o.HMA.SortStall
		}
		if o.HMA.MaxMigrations > 0 {
			c.MaxMigrations = o.HMA.MaxMigrations
		}
		c.CacheBytes = o.HMA.CacheBytes
		return "hma", c, nil
	case MechTHM:
		return "thm", thm.DefaultConfig(), nil
	case MechCAMEO:
		return "cameo", cameo.DefaultConfig(), nil
	case MechMigrant:
		c := migrant.DefaultConfig()
		if o.Migrant.Epoch > 0 {
			c.Epoch = o.Migrant.Epoch
		}
		if o.Migrant.HotThreshold > 0 {
			c.HotThreshold = o.Migrant.HotThreshold
		}
		if o.Migrant.FaultCost > 0 {
			c.FaultCost = o.Migrant.FaultCost
		}
		return "migrant", c, nil
	case MechTLM, MechHBMOnly, MechDDROnly:
		return "static", nil, nil
	default:
		return "", nil, fmt.Errorf("mempod: unknown mechanism %q (valid: %s)",
			o.Mechanism, mechanismNames())
	}
}

func buildMechanism(o Options, backend *mech.Backend) (mech.Mechanism, error) {
	_, cfg, err := o.mechConfig()
	if err != nil {
		return nil, err
	}
	switch c := cfg.(type) {
	case core.Config:
		return core.New(c, backend)
	case hma.Config:
		return hma.New(c, backend)
	case thm.Config:
		return thm.New(c, backend)
	case cameo.Config:
		return cameo.New(c, backend)
	case migrant.Config:
		return migrant.New(c, backend)
	default:
		return mech.NewStatic(string(o.Mechanism), backend), nil
	}
}

// mechanismNames renders the Mechanisms list for error messages.
func mechanismNames() string {
	names := make([]string, len(Mechanisms()))
	for i, m := range Mechanisms() {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

func lookupWorkload(name string) (workload.Workload, error) {
	for _, w := range workload.All() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload.Workload{}, fmt.Errorf("mempod: unknown workload %q (see Workloads())", name)
}
