package tracecache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// genReqs builds a small deterministic trace for cache tests.
func genReqs(n int, seed int64) []trace.Request {
	reqs := make([]trace.Request, n)
	t := clock.Time(seed)
	for i := range reqs {
		t += clock.Time(10 + i%7)
		reqs[i] = trace.Request{Addr: uint64(seed)<<20 | uint64(i), Time: t, Core: uint8(i % 8)}
	}
	return reqs
}

func snapGen(n int, seed int64, calls *atomic.Int32) func() (*trace.Snapshot, error) {
	return func() (*trace.Snapshot, error) {
		if calls != nil {
			calls.Add(1)
		}
		return trace.Record(trace.NewSliceStream(genReqs(n, seed)), n), nil
	}
}

// TestAcquireSingleFlight hammers one key from many goroutines: exactly
// one generation must happen, and every acquirer must see the same
// snapshot contents.
func TestAcquireSingleFlight(t *testing.T) {
	c := New()
	key := Key{Workload: "mix5", Requests: 256, Seed: 42}
	const users = 16
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, release, err := c.Acquire(key, users, snapGen(256, 42, &calls))
			if err != nil {
				t.Error(err)
				return
			}
			defer release()
			if snap.Len() != 256 {
				t.Errorf("snapshot Len = %d", snap.Len())
			}
			// Replay a prefix to check the snapshot is usable concurrently.
			ss := snap.Stream()
			var r trace.Request
			for j := 0; j < 64; j++ {
				if !ss.Next(&r) {
					t.Error("short replay")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Live != 1 || st.Idle != 1 {
		t.Errorf("after all releases Live=%d Idle=%d, want the one snapshot kept idle", st.Live, st.Idle)
	}
	if st.Generated != 1 || st.Hits != users-1 {
		t.Errorf("stats %+v, want 1 generated / %d hits", st, users-1)
	}
}

// TestLastReleaseFrees pins the exact-lifetime contract: the entry stays
// held until the declared number of uses has been released, then becomes
// the cache's idle entry at once.
func TestLastReleaseFrees(t *testing.T) {
	c := New()
	key := Key{Workload: "cactus", Requests: 64, Seed: 1}
	_, rel1, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, rel3, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	rel1() // idempotent: double release must not count twice
	rel2()
	if live := c.Stats().Live; live != 1 {
		t.Fatalf("entry freed early (live=%d) with one use outstanding", live)
	}
	rel3()
	if st := c.Stats(); st.Live != 1 || st.Idle != 1 {
		t.Fatalf("after last release Live=%d Idle=%d, want the entry idle", st.Live, st.Idle)
	}
}

// TestIdleRevivedByNextBatch checks the cross-batch hit: a second batch
// over the last-released key revives the idle snapshot under its own
// declared uses, without generating, and its last release makes the entry
// idle again.
func TestIdleRevivedByNextBatch(t *testing.T) {
	c := New()
	key := Key{Workload: "mix5", Requests: 128, Seed: 4}
	var calls atomic.Int32
	first, rel1, err := c.Acquire(key, 2, snapGen(128, 4, &calls))
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := c.Acquire(key, 2, snapGen(128, 4, &calls))
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	rel2()

	var rels []func()
	for i := 0; i < 3; i++ {
		snap, rel, err := c.Acquire(key, 3, snapGen(128, 4, &calls))
		if err != nil {
			t.Fatalf("second batch acquire %d: %v", i, err)
		}
		if snap != first {
			t.Fatalf("second batch acquire %d got another snapshot", i)
		}
		rels = append(rels, rel)
	}
	if st := c.Stats(); st.Generated != 1 || st.Hits != 4 || st.Live != 1 || st.Idle != 0 {
		t.Fatalf("during second batch: %+v, want Generated 1, Hits 4, Live 1, Idle 0", st)
	}
	if _, _, err := c.Acquire(key, 3, snapGen(128, 4, &calls)); err == nil {
		t.Error("acquire beyond the revived batch's declared uses accepted")
	}
	rels[0]()
	rels[1]()
	if st := c.Stats(); st.Idle != 0 {
		t.Fatalf("entry idle (%+v) with one use of the second batch outstanding", st)
	}
	rels[2]()
	if st := c.Stats(); st.Live != 1 || st.Idle != 1 {
		t.Fatalf("after the second batch: %+v, want Live == Idle == 1", st)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times, want 1", n)
	}
}

// TestMissFreesIdleFirst checks the memory bound: a miss on another key
// frees the idle snapshot before generating, so the idle entry never adds
// to peak residency, and the freed key regenerates on its next use.
func TestMissFreesIdleFirst(t *testing.T) {
	c := New()
	keyA := Key{Workload: "a", Requests: 64, Seed: 1}
	keyB := Key{Workload: "b", Requests: 64, Seed: 2}
	_, relA, err := c.Acquire(keyA, 1, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	relA()
	_, relB, err := c.Acquire(keyB, 1, snapGen(64, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Generated != 2 || st.Peak != 1 || st.Live != 1 || st.Idle != 0 {
		t.Fatalf("after the miss: %+v, want Generated 2, Peak 1, Live 1, Idle 0", st)
	}
	relB()
	var calls atomic.Int32
	_, relA, err = c.Acquire(keyA, 1, snapGen(64, 1, &calls))
	if err != nil {
		t.Fatal(err)
	}
	relA()
	if calls.Load() != 1 {
		t.Errorf("freed key served without regenerating (%d generator calls)", calls.Load())
	}
	if st := c.Stats(); st.Generated != 3 || st.Hits != 0 || st.Peak != 1 {
		t.Errorf("stats %+v, want Generated 3, Hits 0, Peak 1", st)
	}
}

// TestCloseFreesIdle checks that Close frees the idle snapshot, leaves a
// held one alone, and leaves the cache usable.
func TestCloseFreesIdle(t *testing.T) {
	c := New()
	keyA := Key{Workload: "a", Requests: 64, Seed: 1}
	keyB := Key{Workload: "b", Requests: 64, Seed: 2}
	_, relA, err := c.Acquire(keyA, 1, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	relA()
	c.Close()
	if st := c.Stats(); st.Live != 0 || st.Idle != 0 {
		t.Fatalf("after Close: %+v, want nothing resident", st)
	}

	snapB, relB, err := c.Acquire(keyB, 1, snapGen(64, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if st := c.Stats(); st.Live != 1 || st.Idle != 0 {
		t.Fatalf("Close with a use outstanding: %+v, want the held entry kept", st)
	}
	if got := trace.Collect(snapB.Stream()); len(got) != 64 || got[0] != genReqs(64, 2)[0] {
		t.Fatal("held snapshot damaged by Close")
	}
	relB()

	_, relA, err = c.Acquire(keyA, 1, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	relA()
	if st := c.Stats(); st.Generated != 3 || st.Live != 1 || st.Idle != 1 {
		t.Errorf("after reuse: %+v, want Generated 3, Live == Idle == 1", st)
	}
}

// TestDistinctKeysDistinctSnapshots checks keys don't collide: different
// seeds yield different recorded contents.
func TestDistinctKeysDistinctSnapshots(t *testing.T) {
	c := New()
	s1, rel1, err := c.Acquire(Key{Workload: "w", Requests: 32, Seed: 1}, 1, snapGen(32, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	s2, rel2, err := c.Acquire(Key{Workload: "w", Requests: 32, Seed: 2}, 1, snapGen(32, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 trace.Request
	ss1, ss2 := s1.Stream(), s2.Stream()
	ss1.Next(&r1)
	ss2.Next(&r2)
	if r1.Addr == r2.Addr {
		t.Error("distinct seeds replayed identical first requests")
	}
	if peak := c.Stats().Peak; peak != 2 {
		t.Errorf("peak %d, want 2", peak)
	}
	rel1()
	rel2()
}

// TestGenerationErrorPropagatesAndForgets checks the failure path: the
// error reaches the acquirer, nothing stays resident, and a retry re-runs
// the generator.
func TestGenerationErrorPropagatesAndForgets(t *testing.T) {
	c := New()
	key := Key{Workload: "broken", Requests: 8, Seed: 9}
	boom := errors.New("boom")
	_, _, err := c.Acquire(key, 2, func() (*trace.Snapshot, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if live := c.Stats().Live; live != 0 {
		t.Fatalf("failed entry still resident (%d)", live)
	}
	snap, release, err := c.Acquire(key, 2, snapGen(8, 9, nil))
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if snap.Len() != 8 {
		t.Errorf("retry snapshot Len = %d", snap.Len())
	}
	release()
}

// TestAcquireContractViolations checks the misuse guards: zero uses,
// conflicting uses, and over-acquiring all error instead of corrupting
// the accounting.
func TestAcquireContractViolations(t *testing.T) {
	c := New()
	key := Key{Workload: "w", Requests: 16, Seed: 3}
	if _, _, err := c.Acquire(key, 0, snapGen(16, 3, nil)); err == nil {
		t.Error("uses=0 accepted")
	}
	_, rel, err := c.Acquire(key, 1, snapGen(16, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Acquire(key, 2, snapGen(16, 3, nil)); err == nil {
		t.Error("conflicting uses accepted")
	}
	if _, _, err := c.Acquire(key, 1, snapGen(16, 3, nil)); err == nil {
		t.Error("acquire beyond declared uses accepted")
	}
	rel()
}

// TestCacheStressConcurrentClaimants hammers the cache with 100 goroutines
// across a handful of keys, all released from a start barrier at once so
// the single-flight path, the waiter path and the last-release eviction
// all race. The assertions are the cache's two contracts: exactly one
// generation per distinct key (Generated == unique keys, however the
// claimants interleaved), and exact lifetimes (only the one idle entry
// resident once every declared use is released, residency never exceeding
// the distinct-key count). CI runs this under -race, which checks the snapshot handoff
// itself: every claimant replays its snapshot, so a buffer released back
// to the recording pool while still in use is a detected race.
func TestCacheStressConcurrentClaimants(t *testing.T) {
	const (
		keys         = 5
		usersPerKey  = 20
		totalUsers   = keys * usersPerKey
		reqsPerTrace = 64
	)
	c := New()
	var calls atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, totalUsers)
	for k := 0; k < keys; k++ {
		key := Key{Workload: "stress", Requests: reqsPerTrace, Seed: int64(k)}
		want := genReqs(reqsPerTrace, int64(k))
		for u := 0; u < usersPerKey; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				snap, release, err := c.Acquire(key, usersPerKey, snapGen(reqsPerTrace, key.Seed, &calls))
				if err != nil {
					errs <- err
					return
				}
				defer release()
				// Replay the whole snapshot so -race sees any use of a
				// buffer another goroutine's release recycled.
				var r trace.Request
				s, n := snap.Stream(), 0
				for s.Next(&r) {
					if r != want[n] {
						errs <- errors.New("snapshot contents diverged under contention")
						return
					}
					n++
				}
				if n != reqsPerTrace {
					errs <- errors.New("short replay under contention")
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := c.Stats()
	if int(calls.Load()) != keys || s.Generated != keys {
		t.Errorf("generated %d snapshots (stats say %d), want exactly %d (one per key)",
			calls.Load(), s.Generated, keys)
	}
	if s.Hits != totalUsers-keys {
		t.Errorf("hits = %d, want %d", s.Hits, totalUsers-keys)
	}
	if s.Live != 1 || s.Idle != 1 {
		t.Errorf("Live=%d Idle=%d after every use released, want only the idle entry", s.Live, s.Idle)
	}
	if s.Peak > keys {
		t.Errorf("peak residency %d exceeds the %d distinct keys", s.Peak, keys)
	}

	// Which key is idle depends on the interleaving; Close frees it. The
	// keys are then gone, so a fresh batch over one of them regenerates:
	// eviction must not leave tombstones that serve recycled buffers.
	c.Close()
	if got := c.Stats(); got.Live != 0 || got.Idle != 0 {
		t.Fatalf("after Close: %+v, want nothing resident", got)
	}
	snap, release, err := c.Acquire(Key{Workload: "stress", Requests: reqsPerTrace, Seed: 0}, 1, snapGen(reqsPerTrace, 0, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != reqsPerTrace {
		t.Errorf("regenerated snapshot has %d requests, want %d", snap.Len(), reqsPerTrace)
	}
	release()
	if got := c.Stats(); got.Generated != keys+1 || got.Live != 1 || got.Idle != 1 {
		t.Errorf("after regeneration: %+v, want Generated %d, Live == Idle == 1", got, keys+1)
	}
}

// storedFiles lists the .mps1 files in a store directory.
func storedFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mps1") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestStorePersistAndReload exercises the disk store end to end: the
// first cache generates and persists; a second cache over the same
// directory serves the key from the store without calling its generator.
func TestStorePersistAndReload(t *testing.T) {
	dir := t.TempDir()
	key := Key{Workload: "mix5", Requests: 512, Seed: 7}
	want := genReqs(512, 7)

	c1 := New()
	c1.SetDir(dir)
	var calls1 atomic.Int32
	s1, rel1, err := c1.Acquire(key, 1, snapGen(512, 7, &calls1))
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Collect(s1.Stream())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("first acquire: request %d differs", i)
		}
	}
	rel1()
	if st := c1.Stats(); st.Generated != 1 || st.Persisted != 1 {
		t.Fatalf("first cache stats %+v, want Generated=1 Persisted=1", st)
	}
	if files := storedFiles(t, dir); len(files) != 1 {
		t.Fatalf("store holds %v, want one .mps1 file", files)
	}

	c2 := New()
	c2.SetDir(dir)
	var calls2 atomic.Int32
	s2, rel2, err := c2.Acquire(key, 1, snapGen(512, 7, &calls2))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if calls2.Load() != 0 {
		t.Fatalf("second cache regenerated (%d generator calls), want store load", calls2.Load())
	}
	got = trace.Collect(s2.Stream())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("store reload: request %d differs", i)
		}
	}
	if st := c2.Stats(); st.Persisted != 0 {
		t.Fatalf("stats %+v, want Persisted=0 on a store hit", st)
	}
}

// TestStoreCorruptFileRegenerates corrupts the stored snapshot between
// cache lifetimes: the next acquire must fall back to the generator, and
// the store must end up with a fresh valid file.
func TestStoreCorruptFileRegenerates(t *testing.T) {
	dir := t.TempDir()
	key := Key{Workload: "mix5", Requests: 256, Seed: 3}

	c1 := New()
	c1.SetDir(dir)
	s1, rel1, err := c1.Acquire(key, 1, snapGen(256, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	rel1()
	files := storedFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store holds %v", files)
	}
	path := filepath.Join(dir, files[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	c2.SetDir(dir)
	var calls atomic.Int32
	s2, rel2, err := c2.Acquire(key, 1, snapGen(256, 3, &calls))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if calls.Load() != 1 {
		t.Fatalf("generator called %d times, want 1 (corrupt store file)", calls.Load())
	}
	want := genReqs(256, 3)
	got := trace.Collect(s2.Stream())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs after regeneration", i)
		}
	}
	if st := c2.Stats(); st.Persisted != 1 {
		t.Fatalf("stats %+v, want the regenerated snapshot re-persisted", st)
	}
}

// TestStoreWrongIdentityRegenerates plants a valid snapshot file whose
// recorded workload does not match the key it is named for: the store
// must refuse it rather than replay the wrong trace.
func TestStoreWrongIdentityRegenerates(t *testing.T) {
	dir := t.TempDir()
	keyA := Key{Workload: "aaa", Requests: 128, Seed: 1}
	keyB := Key{Workload: "bbb", Requests: 128, Seed: 1}

	c1 := New()
	c1.SetDir(dir)
	genA := func() (*trace.Snapshot, error) {
		s := trace.Record(trace.NewSliceStream(genReqs(128, 1)), 128)
		return s, nil
	}
	_, relA, err := c1.Acquire(keyA, 1, genA)
	if err != nil {
		t.Fatal(err)
	}
	relA()
	files := storedFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store holds %v", files)
	}
	// Masquerade keyA's file as keyB's.
	if err := os.Rename(filepath.Join(dir, files[0]), filepath.Join(dir, storeName(keyB))); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	c2.SetDir(dir)
	var calls atomic.Int32
	_, relB, err := c2.Acquire(keyB, 1, snapGen(128, 99, &calls))
	if err != nil {
		t.Fatal(err)
	}
	defer relB()
	if calls.Load() != 1 {
		t.Fatalf("generator called %d times, want 1 (identity mismatch)", calls.Load())
	}
}
