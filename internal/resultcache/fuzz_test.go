package resultcache

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/url"
	"strings"
	"testing"
)

// FuzzCellKeyDecode throws arbitrary bytes at the MPR1 frame and key
// decoders and checks the invariants the cache relies on:
//
//   - DecodeFile never panics and never returns both a nil error and a
//     key that fails to re-encode byte-identically (re-framing the parsed
//     key with the parsed payload must reproduce the input).
//   - ParseKey never panics, and any accepted key round-trips exactly
//     through Canonical.
//   - Canonical and Fingerprint equal the reference fmt/url.PathEscape
//     encoder for a key derived from the input, and that key round-trips
//     through ParseKey.
//   - VerifyFile accepts exactly the files DecodeFile accepts with the
//     requested key.
func FuzzCellKeyDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(fileMagic))
	f.Add([]byte("MPR0junk"))
	f.Add([]byte(testKey().Canonical()))
	f.Add(EncodeFile(testKey(), nil))
	f.Add(EncodeFile(testKey(), EncodeResult(testResult())))
	f.Add(EncodeFile(CellKey{Kind: "oracle/v1", Workload: "a b%20c/d\xffe", Seed: -1}, []byte{1, 2, 3}))
	long := EncodeFile(testKey(), make([]byte, 300))
	f.Add(long[:len(long)-5])
	f.Add([]byte("result/v1\x00mempod:{Interval:5 Counters:64}\x00{FastBytes:1 NumPods:4}\x00mix5"))

	f.Fuzz(func(t *testing.T, b []byte) {
		key, payload, decErr := DecodeFile(b)
		if decErr == nil {
			if reframed := EncodeFile(key, payload); !bytes.Equal(reframed, b) {
				t.Fatalf("accepted file does not re-encode identically:\nin  %x\nout %x", b, reframed)
			}
			if got, err := VerifyFile(b, key.Canonical()); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("VerifyFile rejects a file DecodeFile accepts: %v", err)
			}
		}
		if key, err := ParseKey(string(b)); err == nil {
			if canon := key.Canonical(); canon != string(b) {
				t.Fatalf("accepted key does not round-trip:\nin  %q\nout %q", b, canon)
			}
		}

		derived := keyFromBytes(b)
		canon := derived.Canonical()
		if want := referenceCanonical(derived); canon != want {
			t.Fatalf("Canonical differs from the reference encoder:\ngot  %q\nwant %q", canon, want)
		}
		h := fnv.New64a()
		h.Write([]byte(canon))
		if got, want := derived.Fingerprint(), h.Sum64(); got != want {
			t.Fatalf("Fingerprint %016x, reference %016x", got, want)
		}
		if parsed, err := ParseKey(canon); err != nil || parsed != derived {
			t.Fatalf("derived key does not round-trip: %v\nkey    %+v\nparsed %+v", err, derived, parsed)
		}
		_, verErr := VerifyFile(b, canon)
		if wantOK := decErr == nil && key == derived; (verErr == nil) != wantOK {
			t.Fatalf("VerifyFile accepted=%v, DecodeFile-and-compare accepted=%v", verErr == nil, wantOK)
		}
	})
}

// keyFromBytes derives a CellKey from fuzz input: the string fields are
// the input's NUL-separated parts, the numbers are hashes of it.
func keyFromBytes(b []byte) CellKey {
	var num [7]uint64
	for i := range num {
		h := fnv.New64a()
		h.Write([]byte{byte(i)})
		h.Write(b)
		num[i] = h.Sum64()
	}
	parts := bytes.SplitN(b, []byte{0}, 4)
	str := func(i int) string {
		if i < len(parts) {
			return string(parts[i])
		}
		return ""
	}
	return CellKey{
		SimVersion: int(int32(num[0])),
		Kind:       str(0),
		Mech:       str(1),
		FastFP:     num[1],
		SlowFP:     num[2],
		Layout:     str(2),
		Workload:   str(3),
		Requests:   int(num[3]),
		Seed:       int64(num[4]),
		TraceFP:    num[5],
		Window:     int(int64(num[6]) >> 40),
	}
}

// referenceCanonical is the original fmt/url.PathEscape rendering of the
// canonical key line; Canonical must stay byte-identical to it.
func referenceCanonical(k CellKey) string {
	var b strings.Builder
	b.WriteString(keyFormat)
	fmt.Fprintf(&b, " sim=%d", k.SimVersion)
	b.WriteString(" kind=" + url.PathEscape(k.Kind))
	b.WriteString(" mech=" + url.PathEscape(k.Mech))
	fmt.Fprintf(&b, " fast=%016x slow=%016x", k.FastFP, k.SlowFP)
	b.WriteString(" layout=" + url.PathEscape(k.Layout))
	b.WriteString(" wl=" + url.PathEscape(k.Workload))
	fmt.Fprintf(&b, " req=%d seed=%d trace=%016x win=%d",
		k.Requests, k.Seed, k.TraceFP, k.Window)
	return b.String()
}
