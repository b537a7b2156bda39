package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/tracecache"
)

// Worker pulls leased cell batches from a coordinator and computes them
// through the same runner pool and caches the serial path uses. Workers
// are deliberately thin: all scheduling policy (batch sizing, retry,
// expiry) lives in the coordinator; a worker only computes what it is
// told and survives coordinator restarts by retrying the transport.
type Worker struct {
	// Name identifies the worker in coordinator status and logs.
	Name string
	// Transport reaches the coordinator (Loopback or Dial).
	Transport Transport
	// Batch is the cell count requested per lease. Default 16.
	Batch int
	// Parallelism bounds concurrent cells per batch (0 = GOMAXPROCS).
	Parallelism int
	// Results, when non-nil, answers repeat cells without recomputing
	// (give workers a store directory to survive their own restarts).
	Results *resultcache.Cache
	// Traces, when non-nil, shares trace snapshots across batches.
	Traces *tracecache.Cache
	// RetryDelay is the pause after a transport error or an empty grant
	// before asking again. Default 1s.
	RetryDelay time.Duration
	// Patience bounds how long consecutive transport failures are
	// retried before the worker gives up — long enough to ride out a
	// coordinator restart, short enough not to hang forever against a
	// dead one. Default 2 minutes.
	Patience time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// ErrPlanMismatch reports that the worker's locally built plan disagrees
// with the coordinator's — different binaries or engine versions. The
// worker must not compute cells under keys the coordinator would reject.
var ErrPlanMismatch = errors.New("distrib: worker plan does not match coordinator")

// Run serves the coordinator until the sweep is done, ctx is canceled, or
// the transport stays down past Patience. A finished sweep returns nil.
func (w *Worker) Run(ctx context.Context) error {
	batch := w.Batch
	if batch <= 0 {
		batch = 16
	}
	retryDelay := w.RetryDelay
	if retryDelay <= 0 {
		retryDelay = time.Second
	}
	patience := w.Patience
	if patience <= 0 {
		patience = 2 * time.Minute
	}
	traces := w.Traces
	if traces == nil {
		traces = tracecache.New()
	}

	plan, err := w.fetchPlan(ctx, retryDelay, patience)
	if err != nil {
		return err
	}
	w.logf("distrib: worker %s serving %d-cell plan", w.Name, plan.Len())

	var downSince time.Time
	for {
		grant, err := w.Transport.Lease(ctx, LeaseRequest{Worker: w.Name, Max: batch})
		if err != nil {
			if err := w.backoff(ctx, retryDelay, patience, &downSince, err); err != nil {
				return err
			}
			continue
		}
		downSince = time.Time{}
		if grant.Done {
			w.logf("distrib: worker %s: sweep done", w.Name)
			return nil
		}
		if grant.LeaseID == "" {
			wait := time.Duration(grant.RetryMillis) * time.Millisecond
			if wait <= 0 {
				wait = retryDelay
			}
			if err := sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}

		results := w.computeBatch(ctx, plan, grant, traces)
		req := CompleteRequest{LeaseID: grant.LeaseID, Worker: w.Name, Cells: results}
		for {
			resp, err := w.Transport.Complete(ctx, req)
			if err != nil {
				if err := w.backoff(ctx, retryDelay, patience, &downSince, err); err != nil {
					return err
				}
				continue
			}
			downSince = time.Time{}
			w.logf("distrib: worker %s: batch %s: %d accepted, %d dup, %d rejected",
				w.Name, grant.LeaseID, resp.Accepted, resp.Duplicates, resp.Rejected)
			if resp.Done {
				return nil
			}
			break
		}
	}
}

// fetchPlan gets the spec (retrying through coordinator downtime) and
// rebuilds the plan locally, refusing to serve on any mismatch.
func (w *Worker) fetchPlan(ctx context.Context, retryDelay, patience time.Duration) (*exp.Plan, error) {
	var downSince time.Time
	for {
		spec, err := w.Transport.Spec(ctx)
		if err != nil {
			if err := w.backoff(ctx, retryDelay, patience, &downSince, err); err != nil {
				return nil, err
			}
			continue
		}
		if spec.Spec.SimVersion != sim.Version {
			return nil, fmt.Errorf("%w: coordinator sim version %d, worker %d",
				ErrPlanMismatch, spec.Spec.SimVersion, sim.Version)
		}
		plan, err := exp.BuildPlan(spec.Spec.Jobs)
		if err != nil {
			return nil, fmt.Errorf("distrib: worker cannot build plan: %w", err)
		}
		if fp := plan.Fingerprint(); fp != spec.PlanFP || plan.Len() != spec.Total {
			return nil, fmt.Errorf("%w: fingerprint %016x/%d cells vs coordinator %016x/%d",
				ErrPlanMismatch, fp, plan.Len(), spec.PlanFP, spec.Total)
		}
		return plan, nil
	}
}

// computeBatch runs one lease's cells, renewing the lease at TTL/3 in the
// background for as long as the batch takes.
func (w *Worker) computeBatch(ctx context.Context, plan *exp.Plan, grant LeaseResponse, traces *tracecache.Cache) []CellResult {
	renewCtx, stopRenew := context.WithCancel(ctx)
	var renews sync.WaitGroup
	if ttl := time.Duration(grant.TTLMillis) * time.Millisecond; ttl > 0 {
		renews.Add(1)
		go func() {
			defer renews.Done()
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-renewCtx.Done():
					return
				case <-t.C:
					// Failures are fine: an expired lease's results are
					// still accepted at Complete.
					w.Transport.Renew(renewCtx, RenewRequest{LeaseID: grant.LeaseID})
				}
			}
		}()
	}
	runs := plan.RunCells(grant.Indices, exp.RunCellsOptions{
		Results:     w.Results,
		Traces:      traces,
		Parallelism: w.Parallelism,
	})
	stopRenew()
	renews.Wait()
	cells := make([]CellResult, len(runs))
	for i, r := range runs {
		cells[i] = CellResult{Index: grant.Indices[i]}
		if r.Err != nil {
			cells[i].Error = r.Err.Error()
		} else {
			cells[i].Frame = r.Frame
		}
	}
	return cells
}

// backoff sleeps through one transport failure, giving up once failures
// have been continuous past patience.
func (w *Worker) backoff(ctx context.Context, delay, patience time.Duration, downSince *time.Time, cause error) error {
	now := time.Now()
	if downSince.IsZero() {
		*downSince = now
	} else if now.Sub(*downSince) > patience {
		return fmt.Errorf("distrib: worker %s: coordinator unreachable for %v: %w", w.Name, patience, cause)
	}
	w.logf("distrib: worker %s: transport error (retrying): %v", w.Name, cause)
	return sleep(ctx, delay)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
