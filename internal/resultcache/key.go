package resultcache

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/addr"
	"repro/internal/dram"
)

// Record kinds. The kind names the payload codec and carries its version:
// a codec change (new field, different layout) bumps the kind string,
// which changes every affected key, so old store entries become stale
// misses instead of mis-decodes.
const (
	// KindResult is the stats.Result cell payload (EncodeResult).
	KindResult = "result/v1"
)

// CellKey is the complete causal identity of one simulation cell: every
// input that can change the cell's result appears here, and nothing else.
// Two runs with equal keys are guaranteed to produce field-identical
// results (the engine is deterministic), which is what makes results
// content-addressable.
//
// Execution-shape knobs — worker counts, pod shards, batch sizes, replay
// from memory or from a file — are deliberately absent: the differential suites
// prove them bit-identical, so they must not fragment the key space.
type CellKey struct {
	// SimVersion is the engine-semantics stamp (sim.Version). Callers set
	// it explicitly rather than this package importing the engine, so the
	// codec layer stays dependency-light and fuzzable in isolation.
	SimVersion int
	// Kind names the payload codec (KindResult, or a caller-defined kind
	// such as the oracle study's).
	Kind string
	// Mech is the canonical mechanism identity: a short mechanism tag
	// plus the printed config struct (every design-space parameter).
	Mech string
	// FastFP/SlowFP are the dram.Spec fingerprints of the two memory
	// levels (zero where a level — or the whole timing model — is absent,
	// as in the oracle study).
	FastFP uint64
	SlowFP uint64
	// Layout is the printed addr.Layout geometry the cell ran on.
	Layout string
	// Workload, Requests and Seed pin a generated trace exactly (the
	// generators are deterministic). TraceFP instead pins a replayed
	// recorded trace by content fingerprint when no (workload, requests,
	// seed) recipe is known to the caller; it is zero for generated runs.
	Workload string
	Requests int
	Seed     int64
	TraceFP  uint64
	// Window is the engine's outstanding-request window override
	// (0 = engine default, negative = unlimited — stored verbatim).
	Window int
}

// keyFormat tags the canonical key encoding itself, so the field set can
// evolve without old store files parsing as silently-wrong keys.
const keyFormat = "k1"

// Canonical renders the key as one line of space-separated name=value
// fields in fixed order, with free-form values path-escaped
// (url.PathEscape) so they can never contain a space or newline. Equal
// keys have equal canonical forms and vice versa; the canonical form is
// what files store and fingerprints hash.
//
// The canonical bytes and the fingerprint derived from them are part of
// the store format: any change to either must bump keyFormat, or existing
// stores turn into silent misses.
func (k CellKey) Canonical() string {
	var buf [keyBufLen]byte
	return string(k.appendCanonical(buf[:0]))
}

// keyBufLen sizes the stack buffer keys render into: the escaped config
// and layout strings make a simulation cell's line about 400 bytes.
const keyBufLen = 512

// appendCanonical appends the canonical line to b. It is the only
// renderer; Canonical and Fingerprint wrap it.
func (k CellKey) appendCanonical(b []byte) []byte {
	b = append(b, keyFormat+" sim="...)
	b = strconv.AppendInt(b, int64(k.SimVersion), 10)
	b = append(b, " kind="...)
	b = appendEscaped(b, k.Kind)
	b = append(b, " mech="...)
	b = appendEscaped(b, k.Mech)
	b = append(b, " fast="...)
	b = appendHex16(b, k.FastFP)
	b = append(b, " slow="...)
	b = appendHex16(b, k.SlowFP)
	b = append(b, " layout="...)
	b = appendEscaped(b, k.Layout)
	b = append(b, " wl="...)
	b = appendEscaped(b, k.Workload)
	b = append(b, " req="...)
	b = strconv.AppendInt(b, int64(k.Requests), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, " trace="...)
	b = appendHex16(b, k.TraceFP)
	b = append(b, " win="...)
	return strconv.AppendInt(b, int64(k.Window), 10)
}

// mustEscape marks the bytes url.PathEscape rewrites. PathEscape works
// byte by byte, so deriving the table from it keeps appendEscaped
// byte-identical to the library encoder.
var mustEscape = func() (t [256]bool) {
	for i := range t {
		s := string([]byte{byte(i)})
		t[i] = url.PathEscape(s) != s
	}
	return t
}()

// appendEscaped appends url.PathEscape(s) to b without building the
// intermediate string: values with nothing to escape are copied as is.
func appendEscaped(b []byte, s string) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; mustEscape[c] {
			b = append(b, s[:i]...)
			for ; i < len(s); i++ {
				if c = s[i]; mustEscape[c] {
					b = append(b, '%', upperHex[c>>4], upperHex[c&0xf])
				} else {
					b = append(b, c)
				}
			}
			return b
		}
	}
	return append(b, s...)
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits (%016x).
func appendHex16(b []byte, v uint64) []byte {
	const hex = "0123456789abcdef"
	var d [16]byte
	for i := 15; i >= 0; i-- {
		d[i] = hex[v&0xf]
		v >>= 4
	}
	return append(b, d[:]...)
}

// Fingerprint returns the FNV-1a hash of the canonical form. It names the
// store file; the file's embedded canonical key — not the fingerprint —
// is what authenticates an entry, so a fingerprint collision degrades to
// two keys alternately overwriting one file, never to a wrong hit.
func (k CellKey) Fingerprint() uint64 {
	var buf [keyBufLen]byte
	return fnv64a(fnvOffset, k.appendCanonical(buf[:0]))
}

// FNV-1a, inlined so hashing a rendered key or a frame allocates nothing
// (hash/fnv's interface value escapes). The values equal hash/fnv's New64a.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv64a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// keyFields are the canonical field names in canonical order.
var keyFields = []string{"sim", "kind", "mech", "fast", "slow", "layout", "wl", "req", "seed", "trace", "win"}

// ParseKey decodes a canonical key line back into a CellKey. It is strict:
// the format tag, the field set, and the field order must match exactly,
// so ParseKey(k.Canonical()) == k for every key and anything else errors.
func ParseKey(s string) (CellKey, error) {
	parts := strings.Split(s, " ")
	if len(parts) != len(keyFields)+1 {
		return CellKey{}, fmt.Errorf("resultcache: key has %d fields, want %d", len(parts)-1, len(keyFields))
	}
	if parts[0] != keyFormat {
		return CellKey{}, fmt.Errorf("resultcache: key format %q, want %q", parts[0], keyFormat)
	}
	var k CellKey
	for i, field := range keyFields {
		part := parts[i+1]
		val, ok := strings.CutPrefix(part, field+"=")
		if !ok {
			return CellKey{}, fmt.Errorf("resultcache: key field %d is %q, want %s=", i, part, field)
		}
		var err error
		switch field {
		case "sim":
			k.SimVersion, err = parseInt(val)
		case "kind":
			k.Kind, err = parseEscaped(val)
		case "mech":
			k.Mech, err = parseEscaped(val)
		case "fast":
			k.FastFP, err = parseHex(val)
		case "slow":
			k.SlowFP, err = parseHex(val)
		case "layout":
			k.Layout, err = parseEscaped(val)
		case "wl":
			k.Workload, err = parseEscaped(val)
		case "req":
			k.Requests, err = parseInt(val)
		case "seed":
			k.Seed, err = strconv.ParseInt(val, 10, 64)
		case "trace":
			k.TraceFP, err = parseHex(val)
		case "win":
			k.Window, err = parseInt(val)
		}
		if err != nil {
			return CellKey{}, fmt.Errorf("resultcache: key field %s=%q: %w", field, val, err)
		}
	}
	return k, nil
}

func parseInt(v string) (int, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	return int(n), err
}

func parseHex(v string) (uint64, error) {
	if len(v) != 16 {
		return 0, fmt.Errorf("want 16 hex digits, have %d", len(v))
	}
	return strconv.ParseUint(v, 16, 64)
}

// parseEscaped reverses url.PathEscape and rejects values that would not
// re-escape to the input, keeping Canonical∘ParseKey the identity.
func parseEscaped(v string) (string, error) {
	s, err := url.PathUnescape(v)
	if err != nil {
		return "", err
	}
	if url.PathEscape(s) != v {
		return "", fmt.Errorf("non-canonical escaping %q", v)
	}
	return s, nil
}

// MechID renders a mechanism's canonical identity for CellKey.Mech: its
// short tag, followed by ":" and the printed config struct when the
// mechanism is parameterized. Config structs are flat value types whose
// %+v form lists every design-space parameter.
func MechID(tag string, cfg any) string {
	if cfg == nil {
		return tag
	}
	return tag + ":" + fmt.Sprintf("%+v", cfg)
}

// MachineKey returns the KindResult key fields a simulated machine
// contributes: the mechanism identity (a MechID), both memory-spec
// fingerprints and the printed layout geometry. It is the one place these
// are rendered; callers add the engine version and the trace fields. The
// spec fingerprints and the layout print are the expensive part of a key,
// so callers running many cells on one machine build this once.
func MachineKey(simVersion int, mechID string, layout addr.Layout, fast, slow dram.Spec) CellKey {
	return CellKey{
		SimVersion: simVersion,
		Kind:       KindResult,
		Mech:       mechID,
		FastFP:     fast.Fingerprint(),
		SlowFP:     slow.Fingerprint(),
		Layout:     fmt.Sprintf("%+v", layout),
	}
}
