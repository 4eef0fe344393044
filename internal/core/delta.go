// Incremental recompilation: patch a compiled matcher into a new
// dictionary instead of rebuilding it from scratch. The delta path is
// memoized recompilation — the cheap deterministic planning (alphabet
// reduction, partitioning, shard planning) re-runs in full, and every
// expensive compiled unit (slot automaton, dense table, shard engine)
// is reused from the previous matcher whenever its content fingerprint
// proves it unchanged. Reused units are the previous build's immutable
// values and rebuilt ones run the exact cold-path construction, so the
// patched matcher is byte-identical (Save image and engine tables) to
// a cold Compile of the new dictionary — the invariant the golden
// fixtures and FuzzIncrementalCompile enforce.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"cellmatch/internal/compose"
)

// DeltaStats account for one incremental recompile: how much of the
// previous matcher survived. Slots are compose-tier automata, shards
// are sharded-tier engines; a matcher that lands on the single-kernel
// or stt rung reports zero shards either way.
type DeltaStats struct {
	SlotsReused   int
	SlotsRebuilt  int
	ShardsReused  int
	ShardsRebuilt int
}

// Reused reports whether anything at all was patched rather than
// rebuilt — the "was this actually incremental" signal for /stats.
func (d DeltaStats) Reused() bool { return d.SlotsReused > 0 || d.ShardsReused > 0 }

// RecompileDelta compiles newPatterns into a matcher, reusing every
// compiled unit of m whose content is unchanged. The receiver is not
// modified and stays fully serviceable — the serving layer swaps the
// returned matcher in atomically (registry RCU) while scans drain on
// the old one. Regex matchers have no incremental decomposition (one
// trial compile feeds the partitioner) and rebuild cold.
//
// The result is byte-identical to Compile(newPatterns, m.Options()):
// reuse is keyed on content fingerprints plus global pattern ids, and
// everything not provably unchanged re-runs the cold construction.
func (m *Matcher) RecompileDelta(newPatterns [][]byte) (*Matcher, *DeltaStats, error) {
	ds := &DeltaStats{}
	if m.regex {
		exprs := make([]string, len(newPatterns))
		for i, p := range newPatterns {
			exprs[i] = string(p)
		}
		m2, err := CompileRegexSearch(exprs, m.opts)
		if err != nil {
			return nil, nil, err
		}
		ds.SlotsRebuilt = len(m2.sys.Slots)
		return m2, ds, nil
	}
	sys, reused, err := compose.NewSystemDelta(newPatterns, composeConfig(m.opts), m.sys, m.patterns)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range reused {
		if r {
			ds.SlotsReused++
		} else {
			ds.SlotsRebuilt++
		}
	}
	cp := make([][]byte, len(newPatterns))
	for i, p := range newPatterns {
		cp[i] = append([]byte(nil), p...)
	}
	m2, err := (&Matcher{sys: sys, opts: m.opts, patterns: cp, minLen: shortest(cp)}).finish(m, reused, ds)
	if err != nil {
		return nil, nil, err
	}
	return m2, ds, nil
}

// AddPatterns returns a matcher for the dictionary with add appended
// (in order, after the existing entries, so existing pattern ids are
// stable) — the append fast path of the delta compiler, where only the
// partitioner's final group and the genuinely new groups rebuild.
func (m *Matcher) AddPatterns(add [][]byte) (*Matcher, *DeltaStats, error) {
	if len(add) == 0 {
		return nil, nil, fmt.Errorf("core: AddPatterns with no patterns")
	}
	next := make([][]byte, 0, len(m.patterns)+len(add))
	next = append(next, m.patterns...)
	next = append(next, add...)
	return m.RecompileDelta(next)
}

// RemovePatterns returns a matcher for the dictionary with the given
// pattern indices removed. Surviving patterns keep their relative
// order but ids above a removed index shift down — match streams from
// the new matcher speak the NEW ids, so callers holding old ids must
// re-resolve them (Pattern(i) on the new matcher). Unit reuse is
// content-keyed, so slots composed purely of surviving patterns at
// unchanged ids are still patched, not rebuilt.
func (m *Matcher) RemovePatterns(indices []int) (*Matcher, *DeltaStats, error) {
	if len(indices) == 0 {
		return nil, nil, fmt.Errorf("core: RemovePatterns with no indices")
	}
	drop := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(m.patterns) {
			return nil, nil, fmt.Errorf("core: RemovePatterns index %d out of range [0,%d)", i, len(m.patterns))
		}
		drop[i] = true
	}
	next := make([][]byte, 0, len(m.patterns)-len(drop))
	for i, p := range m.patterns {
		if !drop[i] {
			next = append(next, p)
		}
	}
	if len(next) == 0 {
		return nil, nil, fmt.Errorf("core: RemovePatterns would empty the dictionary")
	}
	return m.RecompileDelta(next)
}

// PatternSetFingerprint hashes a dictionary as a multiset: per-pattern
// SHA-256 digests, sorted, then hashed together. Two dictionaries with
// the same patterns in any order (duplicates counted) share a
// fingerprint — the reload short-circuit key for watchers that must
// not rebuild when a file was merely rewritten in a different order.
func PatternSetFingerprint(patterns [][]byte) [32]byte {
	digests := make([][32]byte, len(patterns))
	var lenBuf [binary.MaxVarintLen64]byte
	for i, p := range patterns {
		h := sha256.New()
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write(p)
		h.Sum(digests[i][:0])
	}
	sort.Slice(digests, func(i, j int) bool {
		return string(digests[i][:]) < string(digests[j][:])
	})
	h := sha256.New()
	for i := range digests {
		h.Write(digests[i][:])
	}
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// PatternSetFingerprint returns the matcher's dictionary fingerprint
// (see the free function), computed once and cached — patterns are
// immutable after compile.
func (m *Matcher) PatternSetFingerprint() [32]byte {
	m.setFPOnce.Do(func() {
		m.setFP = PatternSetFingerprint(m.patterns)
	})
	return m.setFP
}
