// Package dram models DRAM channel timing at the fidelity AMMAT depends
// on: per-bank row-buffer state (open-page policy), bank-level parallelism,
// a shared data bus per channel, and the tCAS/tRCD/tRP/tRAS core timing
// parameters from Table 2 of the paper.
//
// The model is analytic rather than command-replay: instead of stepping
// DRAM clock cycles, each request's service time is computed from the
// next-available times of its bank and the channel's data bus. Refresh is
// available as an option (Spec.WithRefresh) and disabled in the baseline
// experiments; tFAW and rank-crossing penalties are not modelled — their
// average effect is small at the paper's request rates and identical
// across the mechanisms being compared, so they cancel out of normalized
// AMMAT.
package dram

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/clock"
)

// PagePolicy selects the controller's row-buffer policy.
type PagePolicy int

// Row-buffer policies.
const (
	OpenPage   PagePolicy = iota // keep rows open between accesses
	ClosedPage                   // auto-precharge after every access
)

// Spec describes one DRAM channel type.
type Spec struct {
	Name string

	// Bus geometry.
	BusFreq  clock.Freq // I/O clock; data moves on both edges (DDR)
	BusBits  int        // data bus width in bits
	Channels int        // channels of this type in the system (informational)

	// Per-channel organization.
	Banks    int // banks per channel (ranks folded in: Table 2 uses 1 rank)
	RowBytes int // row-buffer size

	// Core timing in bus clock cycles.
	CAS int // tCAS: column access strobe latency
	RCD int // tRCD: row-to-column delay
	RP  int // tRP: precharge
	RAS int // tRAS: minimum row-open time

	// Policy selects row-buffer management: open-page (default) leaves
	// the row latched for spatial locality; closed-page auto-precharges
	// after every access, trading hit latency for conflict-free misses.
	Policy PagePolicy

	// Refresh. When RefreshInterval (tREFI) is non-zero, the channel
	// blocks for RefreshTime (tRFC) every tREFI and all rows are closed.
	// The baseline experiments leave refresh disabled (its average effect
	// is identical across mechanisms and cancels out of normalized
	// AMMAT); enable it for absolute-latency studies.
	RefreshInterval clock.Duration // tREFI (0 disables refresh)
	RefreshTime     clock.Duration // tRFC

	// WriteExtra is extra bus cycles added to a write's service latency,
	// for media with asymmetric write cost (phase-change NVM). Zero (all
	// DRAM specs) is bit-identical to the pre-asymmetry model.
	WriteExtra int
	// LinkTime is the one-way traversal latency of a serial link in front
	// of the channel (CXL-attached memory): requests reach the device
	// LinkTime after issue and data returns LinkTime after the device
	// completes. Zero (directly attached) is bit-identical to the
	// pre-link model.
	LinkTime clock.Duration
}

// HBM returns the paper's stacked-memory spec: 1 GHz, 128-bit bus,
// 16 banks, 8 KB rows, 7-7-7-17.
func HBM() Spec {
	return Spec{
		Name:     "HBM",
		BusFreq:  1 * clock.GHz,
		BusBits:  128,
		Channels: 8,
		Banks:    16,
		RowBytes: 8192,
		CAS:      7, RCD: 7, RP: 7, RAS: 17,
	}
}

// DDR4_1600 returns the paper's off-chip memory spec: 800 MHz I/O clock
// (1600 MT/s), 64-bit bus, 16 banks, 8 KB rows, 11-11-11-28.
func DDR4_1600() Spec {
	return Spec{
		Name:     "DDR4-1600",
		BusFreq:  800 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    16,
		RowBytes: 8192,
		CAS:      11, RCD: 11, RP: 11, RAS: 28,
	}
}

// HBMOverclocked returns the future-technology stacked memory of §6.3.4:
// the same part run at a 4 GHz I/O clock, widening the fast:slow latency
// differential.
func HBMOverclocked() Spec {
	s := HBM()
	s.Name = "HBM-4GHz"
	s.BusFreq = 4 * clock.GHz
	return s
}

// DDR4_2400 returns the future off-chip memory of §6.3.4: 1200 MHz I/O
// clock (2400 MT/s) with proportionally similar core timing.
func DDR4_2400() Spec {
	return Spec{
		Name:     "DDR4-2400",
		BusFreq:  1200 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    16,
		RowBytes: 8192,
		CAS:      16, RCD: 16, RP: 16, RAS: 39,
	}
}

// Named validation errors. Validate wraps these with the offending spec's
// name and values, so callers can match the failure class with errors.Is.
var (
	ErrBusFreq     = errors.New("dram: bus frequency must be positive")
	ErrBusBits     = errors.New("dram: bus width must be a positive multiple of 8 bits")
	ErrBanks       = errors.New("dram: bank count must be positive")
	ErrRowBytes    = errors.New("dram: row size must be a power-of-two multiple of 64 bytes")
	ErrTiming      = errors.New("dram: core timing parameters must be positive")
	ErrTimingOrder = errors.New("dram: tCAS exceeds tRC (tRAS+tRP)")
	ErrRefresh     = errors.New("dram: inconsistent refresh timing")
	ErrWriteExtra  = errors.New("dram: write-extra cycles must be non-negative")
	ErrLinkTime    = errors.New("dram: link latency must be non-negative")
)

// Validate checks internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.BusFreq <= 0:
		return fmt.Errorf("dram %s: bus frequency %d: %w", s.Name, s.BusFreq, ErrBusFreq)
	case s.BusBits <= 0 || s.BusBits%8 != 0:
		return fmt.Errorf("dram %s: bus width %d bits: %w", s.Name, s.BusBits, ErrBusBits)
	case s.Banks <= 0:
		return fmt.Errorf("dram %s: %d banks: %w", s.Name, s.Banks, ErrBanks)
	case s.RowBytes < 64 || s.RowBytes&(s.RowBytes-1) != 0:
		return fmt.Errorf("dram %s: row %d bytes: %w", s.Name, s.RowBytes, ErrRowBytes)
	case s.CAS <= 0 || s.RCD <= 0 || s.RP <= 0 || s.RAS <= 0:
		return fmt.Errorf("dram %s: non-positive core timing: %w", s.Name, ErrTiming)
	case s.CAS > s.RAS+s.RP:
		return fmt.Errorf("dram %s: tCAS %d > tRC %d: %w", s.Name, s.CAS, s.RAS+s.RP, ErrTimingOrder)
	case s.RefreshInterval < 0 || s.RefreshTime < 0:
		return fmt.Errorf("dram %s: negative refresh timing: %w", s.Name, ErrRefresh)
	case s.RefreshInterval > 0 && s.RefreshTime <= 0:
		return fmt.Errorf("dram %s: refresh enabled with zero tRFC: %w", s.Name, ErrRefresh)
	case s.RefreshInterval > 0 && s.RefreshTime >= s.RefreshInterval:
		return fmt.Errorf("dram %s: tRFC %v >= tREFI %v: %w", s.Name, s.RefreshTime, s.RefreshInterval, ErrRefresh)
	case s.WriteExtra < 0:
		return fmt.Errorf("dram %s: write extra %d cycles: %w", s.Name, s.WriteExtra, ErrWriteExtra)
	case s.LinkTime < 0:
		return fmt.Errorf("dram %s: link latency %v: %w", s.Name, s.LinkTime, ErrLinkTime)
	}
	return nil
}

// Fingerprint returns a stable 64-bit identity of every modelled parameter
// (FNV-1a over the printed struct). Two specs with equal fingerprints are
// field-identical, so the fingerprint can key caches and file identities.
func (s Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return h.Sum64()
}

// MarshalJSON emits the spec with its exported fields; together with
// LoadSpec it round-trips exactly (all fields are integers).
func (s Spec) MarshalJSON() ([]byte, error) {
	type plain Spec // avoid recursing into this method
	return json.Marshal(plain(s))
}

// LoadSpec decodes a JSON spec (the serialized form of Spec's exported
// fields, e.g. from MarshalJSON) and validates it. Unknown fields are
// rejected so a typo'd parameter cannot silently fall back to zero.
func LoadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("dram: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// WithRefresh returns a copy of the spec with refresh enabled using
// typical DDR4/HBM parameters: tREFI = 7.8 µs, tRFC = 350 ns.
func (s Spec) WithRefresh() Spec {
	s.RefreshInterval = 7800 * clock.Nanosecond
	s.RefreshTime = 350 * clock.Nanosecond
	return s
}

// cycles converts n bus cycles to a duration.
func (s Spec) cycles(n int) clock.Duration { return s.BusFreq.Cycles(int64(n)) }

// BurstTime returns the data-bus occupancy of one 64-byte line transfer.
// With double data rate, bytes per cycle = BusBits/8 * 2.
func (s Spec) BurstTime() clock.Duration {
	bytesPerCycle := s.BusBits / 8 * 2
	cyc := (64 + bytesPerCycle - 1) / bytesPerCycle
	return s.cycles(cyc)
}

// RowHitLatency returns the command-to-data latency of a row-buffer hit.
func (s Spec) RowHitLatency() clock.Duration { return s.cycles(s.CAS) }

// RowClosedLatency returns the latency when the bank has no open row.
func (s Spec) RowClosedLatency() clock.Duration { return s.cycles(s.RCD + s.CAS) }

// RowConflictLatency returns the latency when another row is open.
func (s Spec) RowConflictLatency() clock.Duration { return s.cycles(s.RP + s.RCD + s.CAS) }
