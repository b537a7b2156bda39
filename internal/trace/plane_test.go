package trace

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// boundedReqs builds a time-ordered request slice whose addresses stay
// inside the layout's flat address space, so predecoded fields are
// meaningful.
func boundedReqs(rng *rand.Rand, n int, l addr.Layout) []Request {
	reqs := randomOrderedReqs(rng, n)
	total := l.TotalBytes()
	for i := range reqs {
		reqs[i].Addr %= total
	}
	return reqs
}

// TestPlaneMatchesGeom asserts every plane entry equals a fresh per-request
// decode through the same geometry.
func TestPlaneMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := []addr.Layout{
		addr.DefaultLayout(),
		{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4},
	}
	for _, l := range layouts {
		g := l.Geom()
		reqs := boundedReqs(rng, 1000, l)
		snap := Record(NewSliceStream(reqs), len(reqs))
		checkPlane(t, snap.Plane(&g), reqs, &g)
		snap.Release()
	}
}

// checkPlane asserts dec holds, for every request, a fresh per-request
// decode through g.
func checkPlane(t *testing.T, dec []Decoded, reqs []Request, g *addr.Geom) {
	t.Helper()
	if len(dec) != len(reqs) {
		t.Fatalf("plane length %d, want %d", len(dec), len(reqs))
	}
	for i, r := range reqs {
		p := addr.PageOf(addr.Addr(r.Addr))
		pod, f := g.HomeFrame(p)
		loc := g.FrameLocation(pod, f, 0)
		want := Decoded{
			Page:  uint64(p),
			Frame: uint32(f),
			Row:   uint32(loc.Row),
			Chan:  uint16(loc.Channel),
			Pod:   uint16(pod),
			Line:  uint8(uint64(addr.LineOf(addr.Addr(r.Addr))) % addr.LinesPerPage),
		}
		if dec[i] != want {
			t.Fatalf("layout %+v request %d: plane %+v, want %+v", g.Layout, i, dec[i], want)
		}
	}
}

// TestPlaneCachedPerLayout asserts one decode pass per layout: same layout
// returns the identical slice, a different layout gets its own plane, and
// Record invalidates cached planes on a pooled snapshot.
func TestPlaneCachedPerLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	std := addr.DefaultLayout().Geom()
	// Two pods decompose pages differently than four (the Fig10 pod
	// sweep's shape), so its plane cannot be shared with std's.
	twoPods := addr.Layout{
		FastBytes: 1 << 30, SlowBytes: 8 << 30,
		FastChannels: 8, SlowChannels: 4, NumPods: 2,
	}.Geom()
	// 4 KB slow rows (what memsys.LayoutFor produces for the NVM preset)
	// keep every page's pod and frame but move its slow-memory row.
	nvmLayout := addr.DefaultLayout()
	nvmLayout.SlowRowBytes = 4096
	nvmRows := nvmLayout.Geom()

	reqs := boundedReqs(rng, 500, addr.DefaultLayout())
	snap := Record(NewSliceStream(reqs), len(reqs))
	a, b := snap.Plane(&std), snap.Plane(&std)
	if &a[0] != &b[0] {
		t.Error("same layout did not reuse the cached plane")
	}
	for _, other := range []struct {
		name string
		g    *addr.Geom
	}{{"two pods", &twoPods}, {"slow row 4096", &nvmRows}} {
		t.Run(other.name, func(t *testing.T) {
			c := snap.Plane(other.g)
			if &a[0] == &c[0] {
				t.Fatal("different layout shared a plane")
			}
			differ := false
			for i := range a {
				if a[i] != c[i] {
					differ = true
					break
				}
			}
			if !differ {
				t.Error("distinct layouts decoded every entry identically")
			}
			checkPlane(t, c, reqs, other.g)
		})
	}
	snap.Release()

	// A re-recorded (pooled) snapshot must not serve a stale plane.
	reqs2 := boundedReqs(rng, 500, addr.DefaultLayout())
	snap2 := Record(NewSliceStream(reqs2), len(reqs2))
	defer snap2.Release()
	d := snap2.Plane(&std)
	for i, r := range reqs2 {
		if want := uint64(addr.PageOf(addr.Addr(r.Addr))); d[i].Page != want {
			t.Fatalf("stale plane after pool reuse: entry %d page %d, want %d", i, d[i].Page, want)
		}
	}
}

// TestNextSpanMatchesNext asserts NextSpan yields exactly the Next
// sequence — including across span caps that do not divide the snapshot
// length — with each span's columns positionally aligned to the plane.
func TestNextSpanMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 1003, l)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	plane := snap.Plane(&g)

	for _, max := range []int{1, 7, 64, 256, 2048, 0} {
		ss := snap.DecodedStream(&g)
		if !ss.HasColumns() {
			t.Fatal("DecodedStream cursor has no columns")
		}
		pos := 0
		for {
			sc := ss.NextSpan(max)
			n := sc.Len()
			if n == 0 {
				break
			}
			if max > 0 && n > max {
				t.Fatalf("max=%d: span of %d requests", max, n)
			}
			for i := 0; i < n; i++ {
				if got := sc.Request(i); got != reqs[pos] {
					t.Fatalf("max=%d request %d: got %+v, want %+v", max, pos, got, reqs[pos])
				}
				if sc.Dec[i] != plane[pos] {
					t.Fatalf("max=%d decoded %d: got %+v, want %+v", max, pos, sc.Dec[i], plane[pos])
				}
				pos++
			}
		}
		if pos != len(reqs) {
			t.Fatalf("max=%d replayed %d requests, want %d", max, pos, len(reqs))
		}
	}

	// Mixing Next and NextSpan on one cursor preserves the sequence.
	ss := snap.DecodedStream(&g)
	var r Request
	for i := 0; i < 10; i++ {
		ss.Next(&r)
	}
	sc := ss.NextSpan(16)
	for i := 0; i < sc.Len(); i++ {
		if got := sc.Request(i); got != reqs[10+i] {
			t.Fatalf("mixed cursor request %d: got %+v, want %+v", 10+i, got, reqs[10+i])
		}
	}
	if !ss.Next(&r) || r != reqs[10+sc.Len()] {
		t.Fatalf("Next after NextSpan: got %+v, want %+v", r, reqs[10+sc.Len()])
	}

	// A cursor without the decoded columns serves no spans.
	if plain := snap.Stream(); plain.HasColumns() || len(plain.NextSpan(16).Times) != 0 {
		t.Fatal("plain cursor served a span")
	}
}

// benchSink keeps benchmark reads observable to the compiler.
var benchSink uint64

// BenchmarkSnapshotBatchReplay measures span replay per request — the
// engine's read of the decoded cursor (NextSpan) at its BatchSize cap,
// touching every column a mechanism reads — the decode-amortized
// counterpart of BenchmarkSnapshotReplay.
func BenchmarkSnapshotBatchReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 1<<16, l)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	ss := snap.DecodedStream(&g)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		sc := ss.NextSpan(256)
		if sc.Len() == 0 {
			ss.Reset()
			continue
		}
		for k := range sc.Times {
			sink += uint64(sc.Times[k]) + sc.Dec[k].Page + uint64(sc.Cores[k])
			if sc.Write(k) {
				sink++
			}
		}
		i += sc.Len()
	}
	benchSink = sink
}
