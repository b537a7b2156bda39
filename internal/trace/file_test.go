package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// snapBytes records reqs and returns them as an MPS1 file image.
func snapBytes(t testing.TB, name string, reqs []Request) []byte {
	t.Helper()
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, name, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSnapFile persists reqs as an MPS1 file under dir and returns its
// path.
func writeSnapFile(t testing.TB, dir, name string, reqs []Request) string {
	t.Helper()
	path := filepath.Join(dir, name+".mps1")
	if err := os.WriteFile(path, snapBytes(t, name, reqs), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// opened is one reader's verdict on a byte string.
type opened struct {
	snap *Snapshot
	name string
	err  error
}

// openBoth decodes data through both readers: ReadSnapshot over the bytes
// and OpenMapped over the same bytes written to a file.
func openBoth(t testing.TB, data []byte) (read, file opened) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.mps1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	read.snap, read.name, read.err = ReadSnapshot(bytes.NewReader(data))
	file.snap, file.name, file.err = OpenMapped(path)
	return read, file
}

// TestFileRoundTrip writes a generator-shaped trace to disk and opens it:
// the file is exactly header plus packed columns, and the requests come
// back unchanged.
func TestFileRoundTrip(t *testing.T) {
	reqs := sample(1000, 6)
	path := writeSnapFile(t, t.TempDir(), "mix5", reqs)
	snap, name, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 + 2 + len("mix5") + 16 + snap.Size()); fi.Size() != want {
		t.Fatalf("file size %d, want %d", fi.Size(), want)
	}
	if name != "mix5" {
		t.Fatalf("name %q, want mix5", name)
	}
	if !reflect.DeepEqual(Collect(snap.Stream()), reqs) {
		t.Fatal("round trip altered requests")
	}
}

// TestFileRoundTripProperty round-trips arbitrary addresses and
// arbitrary, unordered timestamps: the wrapping delta encoding must
// reproduce any int64 sequence.
func TestFileRoundTripProperty(t *testing.T) {
	prop := func(addrs []uint64, times []int64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, len(addrs))
		for i, a := range addrs {
			reqs[i] = Request{Addr: a, Write: rng.Intn(2) == 0, Core: uint8(rng.Intn(256))}
			if i < len(times) {
				reqs[i].Time = clock.Time(times[i])
			}
		}
		back, _, err := ReadSnapshot(bytes.NewReader(snapBytes(t, "p", reqs)))
		if err != nil {
			return false
		}
		got := Collect(back.Stream())
		return len(got) == len(reqs) && (len(got) == 0 || reflect.DeepEqual(got, reqs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReadRejectsGarbage feeds inputs that are not snapshots at all,
// including a file of the retired MPT1 trace format: both readers must
// refuse each with ErrBadTrace.
func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XYZ",
		"MPT1\x05\x00\x00\x00\x00\x00\x00\x00trunc",
		"MPS9\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
	}
	for i, c := range cases {
		read, file := openBoth(t, []byte(c))
		if !errors.Is(read.err, ErrBadTrace) || !errors.Is(file.err, ErrBadTrace) {
			t.Errorf("case %d: errors %v / %v, want ErrBadTrace from both readers", i, read.err, file.err)
		}
	}
}

// TestReadRejectsHugeCount pins the allocation defense: a header
// claiming 2^32 requests, plausible enough to pass the size check, with
// no data behind it is refused by both readers as truncated. Neither
// sizes a buffer from the header, so the test also runs in bounded
// memory.
func TestReadRejectsHugeCount(t *testing.T) {
	hdr := []byte("MPS1\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00")
	read, file := openBoth(t, hdr)
	for _, err := range []error{read.err, file.err} {
		if err == nil || !strings.Contains(err.Error(), "truncated times column") {
			t.Errorf("error %v, want a truncated times column", err)
		}
	}
}

// TestReadErrorPaths drives the readers' malformed-input branches
// through a corruption table. Both readers must reject each input with
// the same ErrBadTrace error naming where decoding stopped; OpenMapped
// prefixes it with the file's path.
func TestReadErrorPaths(t *testing.T) {
	reqs := sample(3, 7)
	good := snapBytes(t, "wl", reqs)
	const hdr = 4 + 2 + 2 + 16
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   []string // substrings the error must contain
	}{
		{"empty input", func(b []byte) []byte { return nil }, []string{"truncated snapshot magic", "offset 0"}},
		{"short header", func(b []byte) []byte { return b[:7] }, []string{"truncated snapshot name", "offset 6"}},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, []string{"bad snapshot magic", `"XPS1"`}},
		{
			"huge count",
			func(b []byte) []byte {
				for i := 8; i < 16; i++ {
					b[i] = 0xff
				}
				return b[:hdr]
			},
			[]string{"implausible snapshot sizes"},
		},
		{"no records after header", func(b []byte) []byte { return b[:hdr] }, []string{"truncated times column", "offset 24"}},
		{"mid-record cut", func(b []byte) []byte { return b[:len(b)-3-8-5] }, []string{"truncated address column"}},
		{
			"unknown flag bits",
			func(b []byte) []byte {
				b[len(b)-3-8] |= 1 << 3 // write bit of request 3 of 3
				return b
			},
			[]string{"write bits set past request 2", fmt.Sprintf("offset %d", len(good)-3-8)},
		},
		{"trailing data", func(b []byte) []byte { return append(b, 0xaa) }, []string{"1 trailing bytes", fmt.Sprintf("offset %d", len(good))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			read, file := openBoth(t, tc.mutate(bytes.Clone(good)))
			if read.err == nil || file.err == nil {
				t.Fatalf("malformed input accepted (ReadSnapshot err %v, OpenMapped err %v)", read.err, file.err)
			}
			if !errors.Is(read.err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", read.err)
			}
			if !strings.HasSuffix(file.err.Error(), ": "+read.err.Error()) {
				t.Errorf("readers disagree: OpenMapped %q, ReadSnapshot %q", file.err, read.err)
			}
			for _, w := range tc.want {
				if !strings.Contains(read.err.Error(), w) {
					t.Errorf("error %q missing %q", read.err, w)
				}
			}
		})
	}
}

// TestReadAcceptsCleanBoundaries pins the accept side: an empty trace,
// exact-length files and write-bitset word boundaries parse identically
// through both readers.
func TestReadAcceptsCleanBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 65} {
		reqs := sample(n, int64(n))
		read, file := openBoth(t, snapBytes(t, "wl", reqs))
		for _, o := range []opened{read, file} {
			if o.err != nil {
				t.Fatalf("n=%d: %v", n, o.err)
			}
			if got := Collect(o.snap.Stream()); len(got) != n || (n > 0 && !reflect.DeepEqual(got, reqs)) {
				t.Fatalf("n=%d: replayed %d requests, want the %d written", n, len(got), n)
			}
		}
	}
}

// TestOpenMappedMatchesReadSnapshot differential-tests the file open
// against the copying reader over the same file: identical name, length
// and record sequence.
func TestOpenMappedMatchesReadSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 64, 65, 1000} {
		reqs := randomOrderedReqs(rng, n)
		path := writeSnapFile(t, t.TempDir(), "wl", reqs)

		ms, mname, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("n=%d: OpenMapped: %v", n, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rs, rname, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatalf("n=%d: ReadSnapshot: %v", n, err)
		}
		if mname != rname || mname != "wl" {
			t.Errorf("n=%d: names %q vs %q", n, mname, rname)
		}
		want, have := Collect(rs.Stream()), Collect(ms.Stream())
		if len(want) != len(have) {
			t.Fatalf("n=%d: %d requests, want %d", n, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("n=%d: request %d differs: %+v vs %+v", n, i, have[i], want[i])
			}
		}
		ms.Release()
		rs.Release()
	}
}

// TestParseSnapshotBytesOffsetErrors drives the structural error paths of
// the MPS1 parser through a corruption table, checking that each failure
// wraps ErrBadTrace and names where parsing stopped.
func TestParseSnapshotBytesOffsetErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	full := snapBytes(t, "wl", randomOrderedReqs(rng, 100))

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   []string
	}{
		{"empty", func(b []byte) []byte { return nil }, []string{"truncated snapshot magic", "offset 0"}},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, []string{"bad snapshot magic"}},
		{"cut name", func(b []byte) []byte { return b[:6] }, []string{"truncated snapshot name", "offset 6"}},
		{"cut counts", func(b []byte) []byte { return b[:10] }, []string{"truncated snapshot counts", "offset 8"}},
		{
			"implausible count",
			func(b []byte) []byte {
				for i := 8; i < 16; i++ {
					b[i] = 0xff
				}
				return b
			},
			[]string{"implausible snapshot sizes"},
		},
		{"cut times column", func(b []byte) []byte { return b[:30] }, []string{"truncated times column", "offset 24"}},
		{"cut address column", func(b []byte) []byte { return b[:len(b)/2] }, []string{"truncated address column"}},
		{"cut cores column", func(b []byte) []byte { return b[:len(b)-2] }, []string{"truncated cores column"}},
		{"trailing bytes", func(b []byte) []byte { return append(b, 1, 2, 3) }, []string{"3 trailing bytes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mutate(bytes.Clone(full))
			_, _, err := parseSnapshotBytes(in)
			if err == nil {
				t.Fatal("parse accepted corrupt input")
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q missing %q", err, w)
				}
			}
		})
	}
}

// TestOpenMappedRejectsCorruptTimes pins down that the file open
// validates the varint times column end to end, exactly like the copying
// reader.
func TestOpenMappedRejectsCorruptTimes(t *testing.T) {
	reqs := randomOrderedReqs(rand.New(rand.NewSource(47)), 200)
	data := snapBytes(t, "wl", reqs)
	// Force the last byte of the times column into a varint continuation:
	// columns follow the 4+2+2+16 header, times first.
	snap := Record(NewSliceStream(reqs), len(reqs))
	timesLen := len(snap.times)
	snap.Release()
	data[4+2+2+16+timesLen-1] |= 0x80
	path := filepath.Join(t.TempDir(), "wl.mps1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, err := OpenMapped(path); err == nil {
		s.Release()
		t.Fatal("OpenMapped accepted corrupt times column")
	}
}

// TestReleasedSharedSnapshotDoesNotPoisonPool pins the fix for a pool
// corruption: a decoded file slices all four columns out of one shared
// buffer (addrs, then writes, then cores, back to back), so releasing
// such a snapshot into the recording pool hands a later Record column
// slices that all alias that buffer. The overlap window is a recording
// slightly *larger* than the pooled one — the whole buffer's capacity
// still satisfies the addrs check, but the address column now extends
// past its old region into the writes and cores regions while those
// columns are appended in place. Release must drop shared snapshots
// instead of pooling them; the Record right after the release (the
// sync.Pool per-P slot makes reuse of a poisoned struct near-certain
// without the fix) has to round-trip exactly.
func TestReleasedSharedSnapshotDoesNotPoisonPool(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	small := randomOrderedReqs(rng, 120)
	bigger := randomOrderedReqs(rng, 130)
	path := writeSnapFile(t, t.TempDir(), "wl", small)

	// held keeps every pool struct this test pulls out alive and
	// unreleased, so the pool's per-P private slot is empty when the
	// shared snapshot is released — the next Record then reuses exactly
	// that struct (or would, without the fix).
	var held []*Snapshot
	for trial := 0; trial < 8; trial++ {
		held = append(held, Record(NewSliceStream(nil), 0))

		rs, _, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rs.shared {
			t.Fatal("decoded file not marked shared")
		}
		rs.Release()

		snap := Record(NewSliceStream(bigger), len(bigger))
		got := Collect(snap.Stream())
		for i := range bigger {
			if got[i] != bigger[i] {
				t.Fatalf("trial %d: request %d replayed %+v, want %+v (pool poisoned by shared snapshot)",
					trial, i, got[i], bigger[i])
			}
		}
		held = append(held, snap)
	}
	_ = held
}
