// Distributed mode: -serve shards the selected experiments' cell plan
// across -join workers and fills the result cache with their cells; the
// tables are then rendered by the serial loop in run.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/exp"
	"repro/internal/resultcache"
)

type serveOptions struct {
	addr            string
	parallelism     int
	leaseTTL        time.Duration
	maxBatch        int
	checkpoint      string
	checkpointEvery time.Duration
	localWorker     bool
}

// serve coordinates the jobs' cells across workers until every cell is
// done, then merges them into results.
func serve(jobs []exp.Job, results *resultcache.Cache, o serveOptions, stderr io.Writer) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	co, err := distrib.New(distrib.Config{
		Jobs: jobs, LeaseTTL: o.leaseTTL, MaxBatch: o.maxBatch,
		CheckpointPath: o.checkpoint, CheckpointEvery: o.checkpointEvery,
		Results: results, Logf: logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: distrib.Handler(co)}
	go srv.Serve(ln)
	defer srv.Close()
	logf("experiments: coordinating %d cells on %s", co.Plan().Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var local sync.WaitGroup
	if o.localWorker {
		w := &distrib.Worker{
			Name:        "local",
			Transport:   distrib.Loopback{Co: co},
			Batch:       o.maxBatch,
			Parallelism: o.parallelism,
			Results:     results,
		}
		local.Add(1)
		go func() {
			defer local.Done()
			w.Run(ctx)
		}()
	}

	err = co.Wait(ctx)
	// The local worker may still be returning from its last Complete; stop
	// it and let it exit before the cache is merged and read.
	stop()
	local.Wait()
	if err != nil {
		return fmt.Errorf("interrupted (%v); checkpoint %s holds %d done cells",
			err, o.checkpoint, co.Status().Done)
	}
	logf("%s", co.Status().ProgressLine())
	co.MergeInto(results)
	return nil
}

// join serves whatever coordinator is at addr until its run is done.
func join(addr, name string, batch, parallelism int, results *resultcache.Cache, stderr io.Writer) error {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &distrib.Worker{
		Name:        name,
		Transport:   distrib.Dial(addr),
		Batch:       batch,
		Parallelism: parallelism,
		Results:     results,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	return w.Run(ctx)
}
