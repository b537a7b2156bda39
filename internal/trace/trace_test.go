package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
)

func sample(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	t := clock.Time(0)
	for i := range reqs {
		t += clock.Time(rng.Intn(10000))
		reqs[i] = Request{
			Addr:  rng.Uint64() % (9 << 30),
			Time:  t,
			Write: rng.Intn(4) == 0,
			Core:  uint8(rng.Intn(8)),
		}
	}
	return reqs
}

func TestSliceStream(t *testing.T) {
	reqs := sample(100, 1)
	s := NewSliceStream(reqs)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s)
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("Collect differs from input")
	}
	var r Request
	if s.Next(&r) {
		t.Fatal("exhausted stream yielded a request")
	}
	s.Reset()
	if !s.Next(&r) || r != reqs[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimitStream(t *testing.T) {
	reqs := sample(50, 2)
	got := Collect(NewLimitStream(NewSliceStream(reqs), 10))
	if len(got) != 10 || !reflect.DeepEqual(got, reqs[:10]) {
		t.Fatalf("limit 10: got %d requests", len(got))
	}
	got = Collect(NewLimitStream(NewSliceStream(reqs), 500))
	if len(got) != 50 {
		t.Fatalf("limit beyond length: got %d, want 50", len(got))
	}
	got = Collect(NewLimitStream(NewSliceStream(reqs), 0))
	if len(got) != 0 {
		t.Fatalf("limit 0: got %d", len(got))
	}
}

func TestMergeStreamOrdersByTime(t *testing.T) {
	a := sample(200, 3)
	b := sample(150, 4)
	c := sample(0, 5)
	m := NewMergeStream(NewSliceStream(a), NewSliceStream(b), NewSliceStream(c))
	got := Collect(m)
	if len(got) != 350 {
		t.Fatalf("merged %d requests, want 350", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("merge out of order at %d: %v < %v", i, got[i].Time, got[i-1].Time)
		}
	}
	// Merging must be a permutation of the inputs.
	counts := map[Request]int{}
	for _, r := range append(append([]Request{}, a...), b...) {
		counts[r]++
	}
	for _, r := range got {
		counts[r]--
	}
	for r, n := range counts {
		if n != 0 {
			t.Fatalf("request %+v count off by %d after merge", r, n)
		}
	}
}

func TestMergeStreamEmpty(t *testing.T) {
	m := NewMergeStream()
	var r Request
	if m.Next(&r) {
		t.Fatal("empty merge yielded a request")
	}
}
