// Package addr defines the address arithmetic and physical memory layout of
// the simulated two-level memory system.
//
// The flat address space covers FastCapacity bytes of die-stacked fast
// memory (HBM) followed by SlowCapacity bytes of off-chip slow memory
// (DDR4), exactly as in the paper's 1+8 GB configuration. Migration
// mechanisms operate on 2 KB pages; memory controllers operate on 64 B
// lines; DRAM row buffers hold 8 KB (four pages).
//
// Pages are interleaved across channels by page index, and channels are
// grouped into pods: pod p owns fast channels {p, p+NumPods} and slow
// channel {p}. This matches Figure 4 of the paper (eight fast MCs, four
// slow MCs, four pods).
package addr

import "fmt"

// Fixed geometry shared by every experiment in the paper.
const (
	LineBytes = 64   // memory-controller transfer granularity
	PageBytes = 2048 // migration granularity (2 KB DRAM page)
	RowBytes  = 8192 // DRAM row-buffer size

	LinesPerPage = PageBytes / LineBytes // 32
	PagesPerRow  = RowBytes / PageBytes  // 4
)

// Addr is a byte address in the flat physical address space.
type Addr uint64

// Page is a global page index (Addr / PageBytes).
type Page uint64

// Line is a global line index (Addr / LineBytes).
type Line uint64

// PageOf returns the page containing a.
func PageOf(a Addr) Page { return Page(a / PageBytes) }

// LineOf returns the line containing a.
func LineOf(a Addr) Line { return Line(a / LineBytes) }

// LineOfPage returns the i'th line of page p.
func LineOfPage(p Page, i int) Line {
	return Line(uint64(p)*LinesPerPage + uint64(i))
}

// PageOfLine returns the page containing line l.
func PageOfLine(l Line) Page { return Page(l / LinesPerPage) }

// Base returns the first byte address of page p.
func (p Page) Base() Addr { return Addr(p) * PageBytes }

// Layout describes the physical organization of a two-level memory: its
// capacities, channel counts and pod clustering. The zero value is not
// meaningful; use DefaultLayout or construct one explicitly and call
// Validate.
type Layout struct {
	FastBytes    uint64 // capacity of fast (stacked) memory
	SlowBytes    uint64 // capacity of slow (off-chip) memory
	FastChannels int    // number of fast-memory controllers
	SlowChannels int    // number of slow-memory controllers
	NumPods      int    // number of pods clustering the controllers

	// FastRowBytes/SlowRowBytes override the per-level DRAM row-buffer
	// size (0 selects the paper's RowBytes). Row size determines how many
	// consecutive page slots share a row (the migration co-location
	// effect), so it is part of the physical address map — and therefore
	// of trace-plane identity (trace.Snapshot.Plane keys on the Layout).
	// memsys.New fills these from the channel specs.
	FastRowBytes uint64
	SlowRowBytes uint64
}

// DefaultLayout is the paper's baseline configuration (Table 2, Figure 4):
// 1 GB HBM over 8 channels, 8 GB DDR4 over 4 channels, 4 pods.
func DefaultLayout() Layout {
	return Layout{
		FastBytes:    1 << 30,
		SlowBytes:    8 << 30,
		FastChannels: 8,
		SlowChannels: 4,
		NumPods:      4,
	}
}

// Validate checks the structural constraints the simulator relies on. A
// layout may be single-level (one of the capacities zero, with zero
// channels on that level) to model the paper's HBM-only and DDR-only
// reference configurations; migration mechanisms additionally require both
// levels to be populated.
func (l Layout) Validate() error {
	if l.NumPods <= 0 {
		return fmt.Errorf("addr: pod count %d must be positive", l.NumPods)
	}
	if l.TotalBytes() == 0 {
		return fmt.Errorf("addr: memory has zero capacity")
	}
	check := func(level string, bytes uint64, channels int, rowBytes uint64) error {
		if rowBytes != 0 {
			switch {
			case rowBytes&(rowBytes-1) != 0:
				return fmt.Errorf("addr: %s row size %d not a power of two", level, rowBytes)
			case rowBytes < PageBytes:
				return fmt.Errorf("addr: %s row size %d smaller than a %d-byte page", level, rowBytes, PageBytes)
			}
		}
		if bytes == 0 {
			if channels != 0 {
				return fmt.Errorf("addr: %s memory has %d channels but zero capacity", level, channels)
			}
			return nil
		}
		switch {
		case bytes%PageBytes != 0:
			return fmt.Errorf("addr: %s capacity %d not a page multiple", level, bytes)
		case channels <= 0:
			return fmt.Errorf("addr: %s memory has capacity but no channels", level)
		case channels%l.NumPods != 0:
			return fmt.Errorf("addr: %d %s channels not divisible by %d pods", channels, level, l.NumPods)
		case (bytes/PageBytes)%uint64(channels) != 0:
			return fmt.Errorf("addr: %s pages not divisible by %d channels", level, channels)
		}
		return nil
	}
	if err := check("fast", l.FastBytes, l.FastChannels, l.FastRowBytes); err != nil {
		return err
	}
	return check("slow", l.SlowBytes, l.SlowChannels, l.SlowRowBytes)
}

// FastPagesPerRow returns how many page slots share a fast-memory row
// (FastRowBytes, defaulting to the paper's RowBytes when zero).
func (l Layout) FastPagesPerRow() uint64 {
	if l.FastRowBytes == 0 {
		return PagesPerRow
	}
	return l.FastRowBytes / PageBytes
}

// SlowPagesPerRow returns how many page slots share a slow-memory row.
func (l Layout) SlowPagesPerRow() uint64 {
	if l.SlowRowBytes == 0 {
		return PagesPerRow
	}
	return l.SlowRowBytes / PageBytes
}

// TwoLevel reports whether both memory levels are populated, which every
// migration mechanism requires.
func (l Layout) TwoLevel() bool { return l.FastBytes > 0 && l.SlowBytes > 0 }

// TotalBytes returns the size of the flat address space.
func (l Layout) TotalBytes() uint64 { return l.FastBytes + l.SlowBytes }

// FastPages returns the number of pages in fast memory.
func (l Layout) FastPages() Page { return Page(l.FastBytes / PageBytes) }

// SlowPages returns the number of pages in slow memory.
func (l Layout) SlowPages() Page { return Page(l.SlowBytes / PageBytes) }

// TotalPages returns the number of pages in the flat address space.
func (l Layout) TotalPages() Page { return l.FastPages() + l.SlowPages() }

// FastLines returns the number of lines in fast memory.
func (l Layout) FastLines() Line { return Line(l.FastBytes / LineBytes) }

// IsFast reports whether page p originally resides in fast memory, i.e.
// whether its flat address falls in the fast region.
func (l Layout) IsFast(p Page) bool { return p < l.FastPages() }

// Channels returns the total number of memory channels (fast then slow).
// Channel IDs are dense: [0, FastChannels) are fast, the rest slow.
func (l Layout) Channels() int { return l.FastChannels + l.SlowChannels }

// FastChannelsPerPod returns how many fast channels each pod owns.
func (l Layout) FastChannelsPerPod() int { return l.FastChannels / l.NumPods }

// SlowChannelsPerPod returns how many slow channels each pod owns.
func (l Layout) SlowChannelsPerPod() int { return l.SlowChannels / l.NumPods }

// FastPagesPerPod returns the number of fast frames each pod manages.
func (l Layout) FastPagesPerPod() uint32 {
	return uint32(uint64(l.FastPages()) / uint64(l.NumPods))
}

// SlowPagesPerPod returns the number of slow frames each pod manages.
func (l Layout) SlowPagesPerPod() uint32 {
	return uint32(uint64(l.SlowPages()) / uint64(l.NumPods))
}

// PagesPerPod returns the total frames per pod (fast + slow).
func (l Layout) PagesPerPod() uint32 {
	return l.FastPagesPerPod() + l.SlowPagesPerPod()
}

// PodOf returns the pod that owns page p. Fast pages interleave over fast
// channels and slow pages over slow channels; both interleavings place
// page p in pod (p mod NumPods), so a pod's fast and slow frames share the
// same residue class and intra-pod migration never crosses pods.
func (l Layout) PodOf(p Page) int {
	if l.IsFast(p) {
		return int(uint64(p) % uint64(l.FastChannels) % uint64(l.NumPods))
	}
	return int(uint64(p-l.FastPages()) % uint64(l.SlowChannels) % uint64(l.NumPods))
}

// Frame identifies a physical page slot within a pod. Frames
// [0, FastPagesPerPod) are fast; the rest are slow. A page's "home frame"
// is the frame its flat address maps to before any migration.
type Frame uint32

// HomeFrame returns the pod and intra-pod frame that page p maps to with no
// migration.
func (l Layout) HomeFrame(p Page) (pod int, f Frame) {
	if l.IsFast(p) {
		pod = l.PodOf(p)
		// Fast pages in pod `pod` are those with p % FastChannels in the
		// pod's residue class; consecutive such pages get consecutive frames.
		f = Frame(uint64(p) / uint64(l.NumPods))
		return pod, Frame(uint64(f) % uint64(l.FastPagesPerPod()))
	}
	s := uint64(p - l.FastPages())
	pod = int(s % uint64(l.SlowChannels) % uint64(l.NumPods))
	f = Frame(uint64(l.FastPagesPerPod()) + (s/uint64(l.NumPods))%uint64(l.SlowPagesPerPod()))
	return pod, f
}

// IsFastFrame reports whether frame f within a pod is a fast-memory frame.
func (l Layout) IsFastFrame(f Frame) bool { return uint32(f) < l.FastPagesPerPod() }

// Location is a fully resolved physical placement of a line: the channel it
// is serviced by, the bank-row coordinates within the channel, and whether
// the channel belongs to the fast memory.
type Location struct {
	Channel int    // dense channel ID, [0, Channels())
	Fast    bool   // true if Channel is a fast-memory channel
	Row     uint64 // row index within the channel (bank decoding is per-spec)
	Col     uint32 // line offset within the row
}

// FrameLocation resolves line index `li` (0..LinesPerPage-1) of frame f in
// pod `pod` to its physical location.
//
// Within a pod, fast frames interleave round-robin over the pod's fast
// channels; slow frames over its slow channels. Within a channel,
// consecutive frames fill consecutive page slots, a row's worth of frames
// per row (the level's pages-per-row), so pages migrated together into
// neighbouring frames share DRAM rows — the co-location effect behind the
// paper's libquantum row-buffer observation.
func (l Layout) FrameLocation(pod int, f Frame, li int) Location {
	if l.IsFastFrame(f) {
		cpp := l.FastChannelsPerPod()
		ch := pod*cpp + int(uint32(f)%uint32(cpp))
		slot := uint64(uint32(f) / uint32(cpp)) // page slot within channel
		ppr := l.FastPagesPerRow()
		return Location{
			Channel: ch,
			Fast:    true,
			Row:     slot / ppr,
			Col:     uint32(slot%ppr)*LinesPerPage + uint32(li),
		}
	}
	sf := uint32(f) - l.FastPagesPerPod()
	cpp := l.SlowChannelsPerPod()
	ch := l.FastChannels + pod*cpp + int(sf%uint32(cpp))
	slot := uint64(sf / uint32(cpp))
	ppr := l.SlowPagesPerRow()
	return Location{
		Channel: ch,
		Fast:    false,
		Row:     slot / ppr,
		Col:     uint32(slot%ppr)*LinesPerPage + uint32(li),
	}
}

// HomeLocation resolves a line of the flat address space to its physical
// location with no migration, via its page's home frame.
func (l Layout) HomeLocation(ln Line) Location {
	p := PageOfLine(ln)
	pod, f := l.HomeFrame(p)
	return l.FrameLocation(pod, f, int(uint64(ln)%LinesPerPage))
}
