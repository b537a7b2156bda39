package trace

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode hardens the snapshot file readers: arbitrary input
// must either decode into a well-formed snapshot or return an error —
// never panic, never index past a column, and never allocate absurd
// amounts for a corrupt header. ReadSnapshot over the bytes and
// OpenMapped over the same bytes as a file must agree on accept/reject
// and replay identical requests.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a valid three-record snapshot and targeted corruptions of
	// each header field and column boundary.
	snap := Record(NewSliceStream([]Request{
		{Addr: 64, Time: 10, Write: true, Core: 1},
		{Addr: 128, Time: 10, Core: 7},
		{Addr: 4096, Time: 300},
	}), 3)
	defer snap.Release()
	var good bytes.Buffer
	if err := WriteSnapshot(&good, "mix5", snap); err != nil {
		f.Fatal(err)
	}
	gb := good.Bytes()
	f.Add(gb)
	f.Add([]byte{})
	f.Add([]byte("MPS1"))
	f.Add([]byte("MPT1 wrong magic"))
	f.Add(gb[:len(gb)-1])                 // truncated last column
	f.Add(gb[:4+2+4+16])                  // header only, no columns
	f.Add(append([]byte(nil), gb[:4]...)) // magic, no name length
	// Huge request count with no data behind it.
	f.Add([]byte("MPS1\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	// Valid header, times column of continuation bytes only (no varint
	// ever terminates).
	bad := append([]byte(nil), gb...)
	for i := 4 + 2 + 4 + 16; i < len(bad); i++ {
		bad[i] = 0x80
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		read, file := openBoth(t, data)
		if (read.err == nil) != (file.err == nil) {
			t.Fatalf("readers disagree: ReadSnapshot err %v, OpenMapped err %v", read.err, file.err)
		}
		if read.err != nil {
			return
		}
		if read.name != file.name {
			t.Fatalf("names differ: %q vs %q", read.name, file.name)
		}
		// A successful decode must replay to exactly Len() records with
		// non-decreasing times (deltas are unsigned), identically through
		// both readers.
		want, got := Collect(read.snap.Stream()), Collect(file.snap.Stream())
		if len(want) != read.snap.Len() || len(got) != file.snap.Len() {
			t.Fatalf("replayed %d/%d records, Len() says %d/%d", len(want), len(got), read.snap.Len(), file.snap.Len())
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("record %d differs: %+v vs %+v", i, want[i], got[i])
			}
			if i > 0 && want[i].Time < want[i-1].Time {
				t.Fatalf("replayed time went backwards at record %d (%v < %v)", i, want[i].Time, want[i-1].Time)
			}
		}
		read.snap.Release()
		file.snap.Release()
	})
}
