// Package tracecache shares generated trace snapshots across the
// simulation cells of an experiment matrix.
//
// A matrix runs every workload under every builder, and trace generation
// costs nearly as much as simulating the accesses — so generating each
// (workload, requests, seed) trace once and replaying the packed snapshot
// (trace.Record / Snapshot.Stream) for every cell is close to a free
// factor-of-builders reduction of the front-end cost.
//
// The cache is built for exact lifetimes, not heuristics: every Acquire
// declares the total number of acquisitions the key will receive in this
// batch, so the cache knows the moment a batch's last user is done with a
// snapshot. That snapshot then stays resident as the cache's one idle
// entry, so the next batch over the same workload (a distributed worker's
// next lease, the next experiment of a sequence) revives it instead of
// recording and decoding the trace again. The idle entry returns to the
// recording pool as soon as another entry becomes idle, before the cache
// generates any new snapshot, or at Close. Combined with workload-major
// task ordering in internal/exp, peak residency stays O(workers), never
// O(workloads): a bounded pool working in submission order can hold cells
// of at most Parallelism+1 distinct workloads at once, and the idle entry
// never adds to that count.
//
// Generation is single-flight: concurrent Acquires of one key block on the
// first caller's generator instead of generating duplicates.
package tracecache

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/trace"
)

// Key identifies one deterministic generated trace.
type Key struct {
	Workload string
	Requests int
	Seed     int64
}

// Stats counts cache activity. Peak is the residency bound the matrix
// ordering is designed around.
type Stats struct {
	Generated int // snapshots actually recorded (cache misses)
	Hits      int // acquisitions served from a resident snapshot
	Live      int // snapshots currently resident, the idle one included
	Idle      int // resident snapshots no batch holds (0 or 1)
	Peak      int // maximum snapshots ever resident at once

	// Disk-store activity (zero unless SetDir enabled the store).
	Persisted int // snapshots written to the store
}

// Cache is a single-flight, use-counted snapshot cache. The zero value is
// not usable; call New. A Cache may be reused across sequential batches;
// concurrent batches must not share one unless they never share keys
// (the per-key uses contract below is batch-wide).
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// idle is the entry whose batch released its last use most recently,
	// kept resident for the next batch over its key; nil when none is.
	idle  *entry
	stats Stats
	// dir, when non-empty, is the disk store: generated snapshots persist
	// there as MPS1 files, and later misses for the same key reload them
	// (trace.OpenMapped) instead of regenerating the trace.
	dir string
}

type entry struct {
	key      Key
	ready    chan struct{} // closed once snap/err are set
	snap     *trace.Snapshot
	err      error
	uses     int // total Acquires this key will receive
	acquired int
	released int
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[Key]*entry)}
}

// SetDir enables the disk-backed snapshot store rooted at dir (which must
// exist). With a store, each key's trace is generated at most once per
// store lifetime rather than once per batch: a miss first tries the
// store's MPS1 file for the key and only generates (then persists) on a
// store miss. Callers sharing one store directory across processes get
// the same amortization; files are written atomically (temp file +
// rename), so a concurrent reader sees either the old complete file or
// the new one.
func (c *Cache) SetDir(dir string) {
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
}

// storeName is the store filename for a key: the workload name (escaped —
// mix names are clean, but workload names are data here, not paths) plus
// the request count and seed, which together pin the exact sequence.
func storeName(k Key) string {
	return fmt.Sprintf("%s-r%d-s%d.mps1", url.PathEscape(k.Workload), k.Requests, k.Seed)
}

// openStored tries the store file for key, validating that its recorded
// identity matches (a stale or hand-renamed file regenerates instead of
// silently replaying the wrong trace).
func openStored(path string, key Key) (*trace.Snapshot, bool) {
	s, name, err := trace.OpenMapped(path)
	if err != nil {
		return nil, false
	}
	if name != key.Workload || s.Len() != key.Requests {
		s.Release()
		return nil, false
	}
	return s, true
}

// persist writes the snapshot to the store atomically.
func persist(path, name string, s *trace.Snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := trace.WriteSnapshot(tmp, name, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// load produces the snapshot for a cache miss: from the disk store when
// one is configured (generating and persisting on a store miss), plainly
// from gen otherwise. A failed store write is not an error: the generated
// snapshot is always a correct answer.
func (c *Cache) load(key Key, gen func() (*trace.Snapshot, error)) (*trace.Snapshot, error) {
	c.mu.Lock()
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return gen()
	}
	path := filepath.Join(dir, storeName(key))
	if s, ok := openStored(path, key); ok {
		return s, nil
	}
	s, err := gen()
	if err != nil {
		return nil, err
	}
	if persist(path, key.Workload, s) == nil {
		c.mu.Lock()
		c.stats.Persisted++
		c.mu.Unlock()
	}
	return s, nil
}

// Acquire returns the snapshot for key, recording it via gen if no
// generation is resident or in flight. uses is the total number of
// Acquire calls key will receive over the whole batch — every caller must
// pass the same value — and each successful Acquire must be paired with
// exactly one call of the returned release function. When the last use is
// released the snapshot becomes the cache's idle entry, and an Acquire of
// the same key in a later batch (with its own uses) revives it as a hit.
// The idle snapshot's buffers return to the recording pool once another
// entry becomes idle, before any new generation, or at Close; callers must
// therefore not touch the snapshot (or any cursor over it) after calling
// release.
//
// If gen fails, every waiter for the in-flight generation receives the
// error and the entry is forgotten; a later Acquire would retry.
func (c *Cache) Acquire(key Key, uses int, gen func() (*trace.Snapshot, error)) (*trace.Snapshot, func(), error) {
	if uses < 1 {
		return nil, nil, fmt.Errorf("tracecache: uses %d < 1 for %v", uses, key)
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && e == c.idle {
		c.idle = nil
		e.uses, e.acquired, e.released = uses, 1, 0
		c.stats.Hits++
		c.mu.Unlock()
		return e.snap, c.releaseFunc(e), nil
	}
	if ok {
		if e.uses != uses {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("tracecache: conflicting uses for %v: %d then %d", key, e.uses, uses)
		}
		e.acquired++
		if e.acquired > e.uses {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("tracecache: %v acquired more than its declared %d uses", key, e.uses)
		}
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, nil, e.err
		}
		return e.snap, c.releaseFunc(e), nil
	}

	// Free the idle snapshot first, so residency at a generation is
	// exactly the snapshots in use plus the new one.
	c.freeIdle()
	e = &entry{key: key, ready: make(chan struct{}), uses: uses, acquired: 1}
	c.entries[key] = e
	c.stats.Generated++
	if live := len(c.entries); live > c.stats.Peak {
		c.stats.Peak = live
	}
	c.mu.Unlock()

	snap, err := c.load(key, gen)
	c.mu.Lock()
	e.snap, e.err = snap, err
	if err != nil {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, nil, err
	}
	return snap, c.releaseFunc(e), nil
}

// releaseFunc builds the idempotent release closure for one acquisition.
// The batch's last release makes e the idle entry, freeing the previous
// one.
func (c *Cache) releaseFunc(e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			e.released++
			if e.released == e.uses {
				c.freeIdle()
				c.idle = e
			}
		})
	}
}

// freeIdle returns the idle entry's snapshot, if any, to the recording
// pool. c.mu must be held.
func (c *Cache) freeIdle() {
	if e := c.idle; e != nil {
		c.idle = nil
		delete(c.entries, e.key)
		e.snap.Release()
	}
}

// Close frees the idle snapshot. Snapshots still held by a batch are not
// touched, and the cache stays usable: a later Acquire of the freed key
// generates it again. A caller that creates a cache for one call closes it
// when the call returns.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freeIdle()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Live = len(c.entries)
	if c.idle != nil {
		s.Idle = 1
	}
	return s
}
