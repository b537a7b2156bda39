package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/addr"
	"repro/internal/clock"
)

// Snapshot is a packed, immutable recording of a trace: the generate-once
// form that every experiment cell replays instead of re-running the
// workload generators. The encoding is columnar so each field packs to its
// entropy rather than its struct size:
//
//   - times: unsigned-varint deltas between consecutive timestamps (the
//     stream is time-ordered, so deltas are small — a few bytes each
//     instead of 8). Deltas are computed with wrapping uint64 arithmetic,
//     so decoding reproduces any int64 sequence exactly, ordered or not.
//   - addrs: raw 64-bit addresses (high-entropy, left uncompressed).
//   - writes: one bit per request.
//   - cores: one byte per request.
//
// At the generators' timestamp distribution this is ~12 B/request versus
// the 24 B in-memory Request, and replaying it costs a few ns/request
// with zero allocations — an order of magnitude cheaper than regenerating
// the trace.
//
// A Snapshot is read-only after Record: any number of Stream cursors may
// replay it concurrently. Release returns its buffers to a pool for the
// next Record; the caller must guarantee no cursor is still in use
// (internal/tracecache's declared-use counts do exactly that).
type Snapshot struct {
	n int
	// All four columns are byte slices in exactly the MPS1 file layout
	// (addrs as little-endian uint64s, writes as little-endian uint64
	// bitset words), so a snapshot can be backed either by buffers Record
	// owns or by subslices of one file read (parseSnapshotBytes). In the
	// LE word layout, request i's write bit is bit i&7 of byte i>>3.
	times  []byte // uvarint deltas, first entry delta from time 0
	addrs  []byte // 8 bytes per request
	writes []byte // bitset, 8*ceil(n/64) bytes
	cores  []byte // one per request

	// shared marks columns that alias one shared backing buffer
	// (parseSnapshotBytes slices all of them out of the file's bytes).
	// Such a snapshot must never enter the recording pool: Record reuses
	// pooled column slices in place, and overlapping columns would
	// overwrite each other. Release lets the GC reclaim these instead.
	shared bool

	// Predecode planes, one per address layout that asked (see Plane).
	// Guarded by planeMu; the plane buffers recycle with the snapshot.
	planeMu sync.Mutex
	planes  []plane

	// Decoded absolute timestamps (see TimeColumn), built lazily like the
	// planes and likewise recycled. Guarded by timeMu.
	timeMu    sync.Mutex
	timeCol   []clock.Time
	timeValid bool
}

// Decoded is one entry of a snapshot's predecode plane: the page/pod/
// home-frame/line decomposition of the request's address under one
// addr.Layout — including the home frame's channel/row placement, so an
// unmigrated access needs no address math at all — computed once per
// snapshot instead of once per simulation cell. 24 bytes, so a 256-entry
// span (6 KB) stays L1-resident.
type Decoded struct {
	Page  uint64 // global page index (addr.PageOf)
	Frame uint32 // home frame within the owning pod (addr.Layout.HomeFrame)
	Row   uint32 // row within Chan holding the home frame (FrameLocation)
	Chan  uint16 // channel servicing the home frame (FrameLocation)
	Pod   uint16 // owning pod
	Line  uint8  // line index within the page, [0, addr.LinesPerPage)
}

// plane is one cached predecode plane and the layout it was decoded under.
// Record invalidates planes but keeps their buffers, so a pooled snapshot's
// next recording reuses the capacity.
type plane struct {
	layout addr.Layout
	valid  bool
	dec    []Decoded
}

// snapPool recycles snapshot buffers across recordings, the same idiom as
// internal/tab: a matrix run records one snapshot per workload, and the
// next workload's Record appends into the previous one's released
// capacity instead of growing fresh multi-MB slices.
var snapPool = sync.Pool{New: func() any { return new(Snapshot) }}

// Record drains up to n requests from s into a packed Snapshot. It is the
// capture half of the record/replay pair; Snapshot.Stream is the replay
// half, and replaying yields the recorded requests bit-for-bit.
func Record(s Stream, n int) *Snapshot {
	snap := snapPool.Get().(*Snapshot)
	if cap(snap.addrs) < 8*n {
		snap.addrs = make([]byte, 0, 8*n)
		snap.writes = make([]byte, 0, 8*((n+63)/64))
		snap.cores = make([]byte, 0, n)
	}
	snap.times = snap.times[:0]
	snap.addrs = snap.addrs[:0]
	snap.writes = snap.writes[:0]
	snap.cores = snap.cores[:0]
	snap.n = 0
	for i := range snap.planes {
		snap.planes[i].valid = false
	}
	snap.timeValid = false

	var r Request
	var prev clock.Time
	var wword uint64
	for snap.n < n && s.Next(&r) {
		snap.times = binary.AppendUvarint(snap.times, uint64(r.Time)-uint64(prev))
		prev = r.Time
		snap.addrs = binary.LittleEndian.AppendUint64(snap.addrs, r.Addr)
		snap.cores = append(snap.cores, r.Core)
		if r.Write {
			wword |= 1 << (uint(snap.n) & 63)
		}
		snap.n++
		if snap.n&63 == 0 {
			snap.writes = binary.LittleEndian.AppendUint64(snap.writes, wword)
			wword = 0
		}
	}
	if snap.n&63 != 0 {
		snap.writes = binary.LittleEndian.AppendUint64(snap.writes, wword)
	}
	return snap
}

// Len returns the number of recorded requests.
func (s *Snapshot) Len() int { return s.n }

// Size returns the packed size in bytes, the resident cost of keeping the
// snapshot cached.
func (s *Snapshot) Size() int {
	return len(s.times) + len(s.addrs) + len(s.writes) + len(s.cores)
}

// Release returns the snapshot's buffers to the recording pool. The
// caller must not use the snapshot — or any Stream cursor over it —
// afterwards.
func (s *Snapshot) Release() {
	if s.shared {
		// Aliased columns (one file read buffer) would corrupt the next
		// Record if pooled; drop them to the GC.
		return
	}
	snapPool.Put(s)
}

// Stream returns a fresh replay cursor over the snapshot. Cursors are
// independent: concurrent cells replaying one snapshot each take their own.
func (s *Snapshot) Stream() *SnapshotStream {
	return &SnapshotStream{snap: s}
}

// Plane returns the snapshot's predecode plane for g's layout, computing
// it on first request: one Decoded entry per recorded request. Planes are
// cached per layout (the experiment matrix mixes the standard two-level
// layout with single-level reference layouts), so all cells sharing a
// layout share one decode pass; computation is single-flight under the
// snapshot's lock. The returned slice is read-only and lives exactly as
// long as the snapshot: Release recycles the plane buffers with it.
func (s *Snapshot) Plane(g *addr.Geom) []Decoded {
	s.planeMu.Lock()
	defer s.planeMu.Unlock()
	slot := -1
	for i := range s.planes {
		if s.planes[i].valid {
			if s.planes[i].layout == g.Layout {
				return s.planes[i].dec
			}
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		s.planes = append(s.planes, plane{})
		slot = len(s.planes) - 1
	}
	pl := &s.planes[slot]
	dec := pl.dec
	if cap(dec) < s.n {
		dec = make([]Decoded, s.n)
	} else {
		dec = dec[:s.n]
	}
	for i := range dec {
		a := addr.Addr(binary.LittleEndian.Uint64(s.addrs[8*i:]))
		p := addr.PageOf(a)
		pod, f := g.HomeFrame(p)
		loc := g.FrameLocation(pod, f, 0)
		dec[i] = Decoded{
			Page:  uint64(p),
			Frame: uint32(f),
			Row:   uint32(loc.Row),
			Chan:  uint16(loc.Channel),
			Pod:   uint16(pod),
			Line:  uint8(uint64(addr.LineOf(a)) % addr.LinesPerPage),
		}
	}
	*pl = plane{layout: g.Layout, valid: true, dec: dec}
	return dec
}

// TimeColumn returns the snapshot's absolute timestamps as a dense column,
// decoding the varint deltas once on first request. Like Plane, the column
// is shared by every cursor over the snapshot (single-flight under a lock)
// and its buffer recycles with the snapshot, so the six mechanism cells
// replaying one workload pay one decode pass instead of six.
func (s *Snapshot) TimeColumn() []clock.Time {
	s.timeMu.Lock()
	defer s.timeMu.Unlock()
	if s.timeValid {
		return s.timeCol
	}
	col := s.timeCol
	if cap(col) < s.n {
		col = make([]clock.Time, s.n)
	} else {
		col = col[:s.n]
	}
	times := s.times
	off := 0
	var now clock.Time
	for i := range col {
		var delta uint64
		var shift uint
		for {
			b := times[off]
			off++
			delta |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
		}
		now += clock.Time(delta)
		col[i] = now
	}
	s.timeCol, s.timeValid = col, true
	return col
}

// DecodedStream returns a replay cursor with the plane for g's layout and
// the decoded time column bound, so span replay (NextSpan) is pure column
// reads with no per-cell varint or address decoding.
func (s *Snapshot) DecodedStream(g *addr.Geom) *SnapshotStream {
	return &SnapshotStream{snap: s, dec: s.Plane(g), times: s.TimeColumn()}
}

// SnapshotStream replays a Snapshot. Next performs no allocation: it
// decodes one varint delta and indexes the columnar arrays. A cursor from
// DecodedStream additionally serves zero-copy spans (NextSpan), the form
// the simulation engine consumes.
type SnapshotStream struct {
	snap  *Snapshot
	dec   []Decoded    // bound predecode plane, nil if none
	times []clock.Time // bound decoded time column, nil if none
	pos   int          // next request index
	off   int          // byte offset into snap.times (varint path only)
	now   clock.Time   // running timestamp (varint path only)
}

// Next implements Stream.
func (ss *SnapshotStream) Next(r *Request) bool {
	s := ss.snap
	if ss.pos >= s.n {
		return false
	}
	if ss.times != nil {
		r.Time = ss.times[ss.pos]
	} else {
		// Inline uvarint decode over the times column. The loop always
		// terminates within the recorded bytes: Record wrote one complete
		// varint per request.
		var delta uint64
		var shift uint
		for {
			b := s.times[ss.off]
			ss.off++
			delta |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
		}
		ss.now += clock.Time(delta)
		r.Time = ss.now
	}
	r.Addr = binary.LittleEndian.Uint64(s.addrs[8*ss.pos:])
	r.Core = s.cores[ss.pos]
	r.Write = s.writes[ss.pos>>3]>>(uint(ss.pos)&7)&1 != 0
	ss.pos++
	return true
}

// Reset rewinds the cursor to the beginning of the snapshot.
func (ss *SnapshotStream) Reset() {
	ss.pos, ss.off, ss.now = 0, 0, 0
}

// Snapshot returns the snapshot the cursor replays.
func (ss *SnapshotStream) Snapshot() *Snapshot { return ss.snap }

// SpanColumns is a zero-copy columnar view of a contiguous run of
// requests: the decoded arrival times, predecode plane and cores sliced
// to the span, plus an accessor over the snapshot's packed write bits. It is what the engine's column path consumes instead of
// materialized Request structs — every field a mechanism needs is already
// a decoded column, so building 24-byte Requests per access is pure
// overhead there.
type SpanColumns struct {
	Times []clock.Time // arrival times, len = span
	Dec   []Decoded    // predecode plane entries, len = span
	Cores []byte       // issuing cores, len = span

	writes []byte // whole write bitset (LE word layout)
	base   int    // global index of Times[0]
}

// Len returns the number of requests in the span.
func (sc *SpanColumns) Len() int { return len(sc.Times) }

// Write reports whether request i of the span is a write.
func (sc *SpanColumns) Write(i int) bool {
	p := sc.base + i
	return sc.writes[p>>3]>>(uint(p)&7)&1 != 0
}

// ColumnStream is implemented by streams that can serve their requests as
// zero-copy spans of decoded columns (SpanColumns). HasColumns reports
// whether NextSpan can produce spans at all; NextSpan returns the next at
// most max requests (max <= 0 for no cap) as a span, empty at end of
// stream, advancing the same cursor Next uses.
type ColumnStream interface {
	HasColumns() bool
	NextSpan(max int) SpanColumns
}

// HasColumns implements ColumnStream: spans require both the predecode
// plane and the decoded time column (DecodedStream binds both).
func (ss *SnapshotStream) HasColumns() bool { return ss.dec != nil && ss.times != nil }

// NextSpan implements ColumnStream.
func (ss *SnapshotStream) NextSpan(max int) SpanColumns {
	s := ss.snap
	n := s.n - ss.pos
	if n <= 0 || !ss.HasColumns() {
		return SpanColumns{}
	}
	if max > 0 && n > max {
		n = max
	}
	base := ss.pos
	ss.pos = base + n
	return SpanColumns{
		Times:  ss.times[base : base+n],
		Dec:    ss.dec[base : base+n],
		Cores:  s.cores[base : base+n],
		writes: s.writes,
		base:   base,
	}
}

// Snapshot file format, the one on-disk trace format (cmd/tracegen's
// output, cmd/mempodsim's -trace-in/-trace-out, the tracecache store):
//
//	header:  magic "MPS1" (4 bytes), name length (uint16 LE), name bytes,
//	         request count (uint64 LE), times length (uint64 LE)
//	columns: times (raw varint bytes), addrs (uint64 LE each),
//	         writes bitset (uint64 LE words), cores (raw bytes)
const snapMagic = "MPS1"

// ErrBadTrace reports a malformed snapshot file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteSnapshot persists a snapshot, labelled with the workload name that
// produced it, in the packed columnar format.
func WriteSnapshot(w io.Writer, name string, s *Snapshot) error {
	if len(name) > 1<<16-1 {
		return fmt.Errorf("trace: snapshot name %q too long", name)
	}
	hdr := make([]byte, 0, 4+2+len(name)+8+8)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.times)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	// The columns are already in file layout; write them through directly.
	for _, col := range [][]byte{s.times, s.addrs, s.writes, s.cores} {
		if _, err := w.Write(col); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot and returns it
// with its recorded workload name. It reads r to EOF: bytes past the
// last column make the input malformed.
func ReadSnapshot(r io.Reader) (*Snapshot, string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("trace: reading snapshot: %w", err)
	}
	return parseSnapshotBytes(data)
}

// OpenMapped loads the snapshot file at path: one whole-file read, then
// the same decode as ReadSnapshot, so both accept exactly the same bytes.
// The columns slice the read buffer; Release leaves it to the garbage
// collector.
func OpenMapped(path string) (*Snapshot, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	s, name, err := parseSnapshotBytes(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return s, name, nil
}

// parseSnapshotBytes decodes the MPS1 layout in place — the returned
// snapshot's columns are subslices of data, no copies — and validates the
// times column, so a replay cursor can never index past a column. Errors
// wrap ErrBadTrace and name the byte offset where decoding failed, so a
// truncated or corrupt file is diagnosable without a hex dump.
func parseSnapshotBytes(data []byte) (*Snapshot, string, error) {
	off := 0
	take := func(n int, what string) ([]byte, error) {
		if len(data)-off < n {
			return nil, fmt.Errorf("%w: truncated %s at offset %d (need %d bytes, have %d)",
				ErrBadTrace, what, off, n, len(data)-off)
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	magic, err := take(4, "snapshot magic")
	if err != nil {
		return nil, "", err
	}
	if string(magic) != snapMagic {
		return nil, "", fmt.Errorf("%w: bad snapshot magic %q", ErrBadTrace, magic)
	}
	nl, err := take(2, "name length")
	if err != nil {
		return nil, "", err
	}
	name, err := take(int(binary.LittleEndian.Uint16(nl)), "snapshot name")
	if err != nil {
		return nil, "", err
	}
	counts, err := take(16, "snapshot counts")
	if err != nil {
		return nil, "", err
	}
	n := binary.LittleEndian.Uint64(counts[:8])
	timesLen := binary.LittleEndian.Uint64(counts[8:])
	const maxReasonable = 1 << 32
	if n > maxReasonable || timesLen > 10*n+16 {
		return nil, "", fmt.Errorf("%w: implausible snapshot sizes (n=%d, times=%d)", ErrBadTrace, n, timesLen)
	}
	if timesLen < n {
		// Every request costs at least one varint byte.
		return nil, "", fmt.Errorf("%w: times column shorter than request count", ErrBadTrace)
	}
	s := &Snapshot{n: int(n), shared: true}
	words := int(n+63) / 64
	if s.times, err = take(int(timesLen), "times column"); err != nil {
		return nil, "", err
	}
	if s.addrs, err = take(8*int(n), "address column"); err != nil {
		return nil, "", err
	}
	if s.writes, err = take(8*words, "writes column"); err != nil {
		return nil, "", err
	}
	if pad := n % 64; pad != 0 {
		// Bits past request n-1 in the last bitset word name no request.
		last := binary.LittleEndian.Uint64(s.writes[len(s.writes)-8:])
		if last>>pad != 0 {
			return nil, "", fmt.Errorf("%w: write bits set past request %d at offset %d", ErrBadTrace, n-1, off-8)
		}
	}
	if s.cores, err = take(int(n), "cores column"); err != nil {
		return nil, "", err
	}
	if off != len(data) {
		return nil, "", fmt.Errorf("%w: %d trailing bytes at offset %d", ErrBadTrace, len(data)-off, off)
	}
	if err := validateTimes(s.times, n); err != nil {
		return nil, "", err
	}
	return s, string(name), nil
}

// validateTimes checks that a times column holds exactly n complete
// varints with no trailing bytes.
func validateTimes(times []byte, n uint64) error {
	off := 0
	for i := uint64(0); i < n; i++ {
		_, vn := binary.Uvarint(times[off:])
		if vn <= 0 {
			return fmt.Errorf("%w: corrupt times column at request %d", ErrBadTrace, i)
		}
		off += vn
	}
	if off != len(times) {
		return fmt.Errorf("%w: %d trailing bytes in times column", ErrBadTrace, len(times)-off)
	}
	return nil
}
