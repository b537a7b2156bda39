// Command tracegen generates a workload's synthetic memory trace and
// writes it as an MPS1 snapshot file, inspects an existing snapshot file,
// or characterizes a workload without writing anything. Its output
// replays under `mempodsim -trace-in`.
//
// Usage:
//
//	tracegen -workload mix5 -requests 1000000 -out mix5.mps1
//	tracegen -inspect mix5.mps1
//	mempodsim -trace-in mix5.mps1 -mech MemPod
//	tracegen -workload lbm -analyze
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
	"repro/internal/tracestat"
	"repro/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "mix1", "workload name")
		requests = flag.Int("requests", 1_000_000, "trace length")
		seed     = flag.Int64("seed", 42, "trace seed")
		out      = flag.String("out", "", "output file (default <workload>.mps1)")
		inspect  = flag.String("inspect", "", "inspect an existing trace file and exit")
		analyze  = flag.Bool("analyze", false, "characterize the workload's trace and exit")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectTrace(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}
	if *analyze {
		if err := analyzeWorkload(*wl, *requests, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	if err := generate(*wl, *requests, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload.Workload, error) {
	for _, cand := range workload.All() {
		if cand.Name == name {
			return cand, nil
		}
	}
	return workload.Workload{}, fmt.Errorf("unknown workload %q", name)
}

func analyzeWorkload(name string, requests int, seed int64) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	s, err := w.Stream(requests, seed)
	if err != nil {
		return err
	}
	sum, err := tracestat.Analyze(s, 0)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s\n%s", name, sum)
	return nil
}

func generate(name string, requests int, seed int64, out string) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	s, err := w.Stream(requests, seed)
	if err != nil {
		return err
	}
	if out == "" {
		out = name + ".mps1"
	}
	snap := trace.Record(s, requests)
	defer snap.Release()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.WriteSnapshot(bw, name, snap); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d requests to %s\n", snap.Len(), out)
	return nil
}

func inspectTrace(path string) error {
	snap, _, err := trace.OpenMapped(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	sum, err := tracestat.Analyze(snap.Stream(), 0)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s\n%s", path, sum)
	return nil
}
