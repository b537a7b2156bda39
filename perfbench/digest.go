package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/resultcache"
	"repro/internal/stats"
)

// defaultSeed is the seed whose outputs are pinned by reference digests.
const defaultSeed = 42

// referenceFile holds the default-seed digests, relative to the root.
const referenceFile = "perfbench/testdata/ref_seed42.json"

// reference is the set of output digests a correct build produces at the
// default seed.
type reference struct {
	// Cells maps a cell's key fingerprint (resultcache.CellKey, hex) to the
	// digest of its decoded payload: every paper-quick cell, which covers
	// the sweep's and the warm re-run's cells too.
	Cells map[string]string `json:"cells"`
	// Tables maps an experiment id to the digest of its rendered text and
	// CSV.
	Tables map[string]string `json:"tables"`
	// Replay maps a mechanism to the digest of replay-long's result.
	Replay map[string]string `json:"replay"`
}

func loadReference(opt options) (*reference, error) {
	if opt.seed != defaultSeed {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(opt.root, referenceFile))
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return &ref, nil
}

func digest(data string) string {
	h := sha256.Sum256([]byte(data))
	return hex.EncodeToString(h[:8])
}

// resultDigest covers every field of a cell result, MigStats included:
// the Go-syntax rendering names each field and prints floats exactly.
func resultDigest(r stats.Result) string { return digest(fmt.Sprintf("%#v", r)) }

// payloadDigest digests a cached cell payload: decoded field by field for
// simulation results, byte for byte for other payload kinds (the oracle
// study's).
func payloadDigest(key resultcache.CellKey, payload []byte) (string, error) {
	if key.Kind != resultcache.KindResult {
		return digest(string(payload)), nil
	}
	r, err := resultcache.DecodeResult(payload)
	if err != nil {
		return "", err
	}
	return resultDigest(r), nil
}

func tableDigest(text, csv string) string { return digest(text + "\x00" + csv) }

func keyID(key resultcache.CellKey) string { return strconv.FormatUint(key.Fingerprint(), 16) }

// checker counts cells and compares every output digest with the
// reference; off the default seed (no reference) it checks that repeated
// outputs agree within the run and keeps the digests for printing.
type checker struct {
	ref       *reference
	seen      map[string]string // "kind/id" → first digest observed
	attempted int               // cells attempted
	failed    int               // cells that errored or mismatched
	problems  []string
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, seen: map[string]string{}}
}

func (c *checker) ok() bool { return c.failed == 0 && len(c.problems) == 0 }

func (c *checker) problemf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// digests returns the reference's digest map for one kind of output.
func (r *reference) digests(kind string) map[string]string {
	switch kind {
	case "cell":
		return r.Cells
	case "table":
		return r.Tables
	default:
		return r.Replay
	}
}

// match checks one digest and reports whether it is correct.
func (c *checker) match(kind, id, got string) bool {
	k := kind + "/" + id
	if c.ref != nil {
		want, ok := c.ref.digests(kind)[id]
		if !ok {
			c.problemf("%s has no reference digest", k)
			return false
		}
		if got != want {
			c.problemf("%s digest %s, reference %s", k, got, want)
			return false
		}
	}
	if prev, ok := c.seen[k]; ok && prev != got {
		c.problemf("%s digest %s differs from earlier %s in this run", k, got, prev)
		return false
	}
	c.seen[k] = got
	return true
}

// cell checks one cell outcome: an error or a digest mismatch fails it.
func (c *checker) cell(kind, id, got string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.problemf("%s/%s: %v", kind, id, err)
		return
	}
	if !c.match(kind, id, got) {
		c.failed++
	}
}

// cachedCell checks a cell through the result cache the run filled.
func (c *checker) cachedCell(rc *resultcache.Cache, key resultcache.CellKey) {
	payload, ok := rc.Lookup(key)
	if !ok {
		c.cell("cell", keyID(key), "", errors.New("missing from the result cache"))
		return
	}
	d, err := payloadDigest(key, payload)
	c.cell("cell", keyID(key), d, err)
}

// table checks one rendered table.
func (c *checker) table(id, text, csv string) {
	c.match("table", id, tableDigest(text, csv))
}

// digestLines summarizes the run's digests for comparison across builds
// on a held-out seed: one combined digest per kind plus each table and
// replay digest.
func (c *checker) digestLines() []string {
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	combined := map[string]string{}
	counts := map[string]int{}
	var lines []string
	for _, k := range keys {
		kind, _, _ := strings.Cut(k, "/")
		combined[kind] = digest(combined[kind] + k + "=" + c.seen[k] + "\n")
		counts[kind]++
		if kind != "cell" {
			lines = append(lines, k+" "+c.seen[k])
		}
	}
	for _, kind := range []string{"cell", "table", "replay"} {
		if counts[kind] > 0 {
			lines = append(lines, fmt.Sprintf("%s/* %s (%d)", kind, combined[kind], counts[kind]))
		}
	}
	return lines
}

// writeReference regenerates the default-seed reference digests by
// running paper-quick and replay-long once each at the default seed.
func writeReference(opt options) error {
	if opt.seed != defaultSeed {
		return fmt.Errorf("reference digests are for seed %d", defaultSeed)
	}
	opt.trace = false
	opt.seconds = 0
	ref := reference{Cells: map[string]string{}, Tables: map[string]string{}, Replay: map[string]string{}}
	for _, w := range []struct {
		name string
		run  workloadFunc
	}{{"paper-quick", runPaperQuick}, {"replay-long", runReplayLong}} {
		opt.workload = w.name
		b := &bench{opt: opt, work: filepath.Join(opt.root, ".bench_build", "work", "ref"), check: newChecker(nil), values: map[string]float64{}}
		if err := os.MkdirAll(b.work, 0o755); err != nil {
			return err
		}
		err := w.run(b)
		b.cleanup()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !b.check.ok() {
			return fmt.Errorf("%s: %v", w.name, b.check.problems)
		}
		for k, d := range b.check.seen {
			kind, id, _ := strings.Cut(k, "/")
			ref.digests(kind)[id] = d
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(opt.writeRef, append(data, '\n'), 0o644)
}
