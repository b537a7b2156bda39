package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// randomOrderedReqs builds a random time-ordered request slice exercising
// every column: duplicate timestamps, large deltas, full-range addresses,
// writes, and core ids beyond the paper's 8.
func randomOrderedReqs(rng *rand.Rand, n int) []Request {
	reqs := make([]Request, n)
	var t clock.Time
	for i := range reqs {
		switch rng.Intn(4) {
		case 0: // duplicate timestamp
		case 1:
			t += clock.Time(rng.Int63n(100))
		case 2:
			t += clock.Time(rng.Int63n(1 << 20))
		default:
			t += clock.Time(rng.Int63n(1 << 40)) // multi-byte varint deltas
		}
		reqs[i] = Request{
			Addr:  rng.Uint64(),
			Time:  t,
			Write: rng.Intn(3) == 0,
			Core:  uint8(rng.Intn(256)),
		}
	}
	return reqs
}

// checkReplay asserts that recording then replaying reqs reproduces them
// field-for-field.
func checkReplay(t *testing.T, reqs []Request) {
	t.Helper()
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	if snap.Len() != len(reqs) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(reqs))
	}
	ss := snap.Stream()
	var r Request
	for i := range reqs {
		if !ss.Next(&r) {
			t.Fatalf("replay ended at request %d of %d", i, len(reqs))
		}
		if r != reqs[i] {
			t.Fatalf("request %d: replayed %+v, recorded %+v", i, r, reqs[i])
		}
	}
	if ss.Next(&r) {
		t.Fatal("replay yielded requests past the recorded count")
	}
}

// TestSnapshotRoundtripProperty is the encode/replay property test: random
// time-ordered request slices must roundtrip exactly, across many sizes
// and seeds.
func TestSnapshotRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		checkReplay(t, randomOrderedReqs(rng, rng.Intn(700)))
	}
}

// TestSnapshotBoundaries pins the edge cases individually: empty stream,
// a single request, and a run of identical timestamps.
func TestSnapshotBoundaries(t *testing.T) {
	checkReplay(t, nil)
	checkReplay(t, []Request{{Addr: 0xdead, Time: 12345, Write: true, Core: 3}})
	dup := make([]Request, 130) // crosses two write-bitset words
	for i := range dup {
		dup[i] = Request{Addr: uint64(i), Time: 42, Write: i%2 == 0, Core: uint8(i % 8)}
	}
	checkReplay(t, dup)
}

// TestSnapshotRecordLimit checks Record's cap: it must stop at n even on a
// longer stream, and tolerate streams shorter than n.
func TestSnapshotRecordLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reqs := randomOrderedReqs(rng, 100)
	snap := Record(NewSliceStream(reqs), 60)
	if snap.Len() != 60 {
		t.Errorf("capped record Len = %d, want 60", snap.Len())
	}
	snap.Release()
	snap = Record(NewSliceStream(reqs), 1000)
	if snap.Len() != 100 {
		t.Errorf("short-stream record Len = %d, want 100", snap.Len())
	}
	snap.Release()
}

// TestSnapshotStreamReset checks that a reset cursor replays identically.
func TestSnapshotStreamReset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reqs := randomOrderedReqs(rng, 200)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	ss := snap.Stream()
	first := Collect(ss)
	ss.Reset()
	second := Collect(ss)
	if len(first) != len(second) {
		t.Fatalf("reset replay length %d != %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset replay diverged at %d", i)
		}
	}
}

// TestSnapshotPoolReuse checks that a released snapshot's buffers can be
// re-recorded without contaminating the new contents.
func TestSnapshotPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	big := randomOrderedReqs(rng, 500)
	snap := Record(NewSliceStream(big), len(big))
	snap.Release()
	small := randomOrderedReqs(rng, 40)
	checkReplay(t, small)
}

// TestSnapshotSize pins the packing target: at generator-like deltas the
// packed form must stay at or under 16 bytes per request.
func TestSnapshotSize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	reqs := make([]Request, 10_000)
	var tm clock.Time
	for i := range reqs {
		tm += clock.Duration(2+rng.Int63n(400)) * clock.Nanosecond
		reqs[i] = Request{Addr: rng.Uint64(), Time: tm, Write: rng.Intn(4) == 0, Core: uint8(i % 8)}
	}
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	if perReq := float64(snap.Size()) / float64(len(reqs)); perReq > 16 {
		t.Errorf("packed size %.1f B/request, want <= 16", perReq)
	}
}

// TestSnapshotFileRoundtrip checks WriteSnapshot/ReadSnapshot persistence,
// including the workload-name label.
func TestSnapshotFileRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 64, 65, 333} {
		reqs := randomOrderedReqs(rng, n)
		snap := Record(NewSliceStream(reqs), n)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, "mix5", snap); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, name, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if name != "mix5" {
			t.Errorf("n=%d: name %q, want mix5", n, name)
		}
		want, have := Collect(snap.Stream()), Collect(got.Stream())
		if len(want) != len(have) {
			t.Fatalf("n=%d: loaded %d requests, want %d", n, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("n=%d: request %d differs after file roundtrip", n, i)
			}
		}
		snap.Release()
	}
}

// TestReadSnapshotRejectsCorruption feeds truncated and corrupted inputs;
// every case must error rather than panic or return garbage.
func TestReadSnapshotRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	snap := Record(NewSliceStream(randomOrderedReqs(rng, 100)), 100)
	defer snap.Release()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, "wl", snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte("XXXX"), full[4:]...)
		if _, _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{0, 3, 5, 8, 20, len(full) / 2, len(full) - 1} {
			if cut >= len(full) {
				continue
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("continuation byte at end of times", func(t *testing.T) {
		b := bytes.Clone(full)
		// Find the times column start: 4 magic + 2 name-len + 2 name +
		// 16 counts; force its final byte to a varint continuation.
		timesStart := 4 + 2 + 2 + 16
		snapTimes := snap.times
		b[timesStart+len(snapTimes)-1] |= 0x80
		if _, _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Error("corrupt varint column accepted")
		}
	})
	t.Run("trailing byte", func(t *testing.T) {
		// The request count and column lengths are authoritative: a byte
		// past the cores column means the file does not match its header.
		b := append(bytes.Clone(full), 0)
		if _, _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Error("trailing byte accepted")
		}
	})
}

// TestSnapshotMatchesSliceStream differential-tests the packed replay
// against the reference SliceStream over the same requests.
func TestSnapshotMatchesSliceStream(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	reqs := randomOrderedReqs(rng, 5000)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	ref, got := NewSliceStream(reqs), snap.Stream()
	var a, b Request
	for i := 0; ; i++ {
		okA, okB := ref.Next(&a), got.Next(&b)
		if okA != okB {
			t.Fatalf("streams diverge in length at %d", i)
		}
		if !okA {
			break
		}
		if a != b {
			t.Fatalf("request %d: snapshot %+v, reference %+v", i, b, a)
		}
	}
}
