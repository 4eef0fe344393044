// Package core is the library facade over the paper's system: compile
// a dictionary (exact strings or regular expressions) into DFA tiles
// and scan data or streams.
//
// The zero-configuration path:
//
//	m, err := core.Compile([][]byte{[]byte("virus")}, core.Options{CaseFold: true})
//	matches := m.FindAll(data)
//
// matches every dictionary entry with the paper's alphabet-reduced,
// pointer-encoded Aho-Corasick machinery. Every scan runs on one
// kernel.Verifier chosen by the selection ladder (selectVerifier); the
// Cell performance model (cellmatch.EstimateCell, cellmatch.Table1)
// lives outside this package so production binaries do not link the
// simulator.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/filter"
	"cellmatch/internal/kernel"
)

// Match is one dictionary hit: Pattern is the index into the compiled
// dictionary; End is the byte offset just past the last matched byte.
type Match struct {
	Pattern int
	End     int
}

// Options configure compilation.
type Options struct {
	// CaseFold matches case-insensitively (the paper's 32-symbol
	// folding regime).
	CaseFold bool
	// Groups is the parallel width for scanning (tiles scanning
	// distinct input portions). Default 1.
	Groups int
	// MaxStatesPerTile overrides the Figure 3 budget (default 1520,
	// the 16 KB-buffer case).
	MaxStatesPerTile int
	// Version selects the kernel implementation for performance
	// estimation (Table 1; default 4, the optimum).
	Version int
	// CompileWorkers bounds the compile-time fan-out across every stage
	// (slot automaton construction, dense/pair table emission, shard
	// compilation): 0 uses one worker per core, 1 pins the sequential
	// build, n caps the pool at n. The compiled matcher is byte-identical
	// at any setting — parallelism only changes wall time. Not persisted
	// in artifacts (it describes the build host, not the matcher).
	CompileWorkers int
	// Engine tunes scan-engine selection (dense compiled kernel vs the
	// stt/dfa fallback path); the zero value enables the kernel with
	// default budgets.
	Engine EngineOptions
}

// EngineOptions select and tune the scan engine behind FindAll,
// FindAllParallel, Stream, and ScanReader.
//
// Selection ladder: stride-2 kernel → dense kernel → compressed-row
// kernel → sharded dense kernels → stt/dfa fallback. A dictionary
// whose dense table fits MaxTableBytes scans on the kernel — with
// 2-byte-stride pair tables layered on top when those also fit the
// budget (see Stride). One that exceeds it first tries the
// compressed-row tier (bitmap rows + popcount rank + default-pointer
// chains, see Compressed): when the compressed footprint stays
// L2-resident the whole dictionary still scans in one cache-hot pass.
// Past that it is partitioned into up to MaxShards sub-dictionaries
// whose kernels each fit the budget (the paper's answer to
// dictionaries outgrowing one SPE's local store: shard the pattern
// set across SPEs, every shard scanning the same stream); only when
// even sharding cannot fit does the matcher fall back to the stt/dfa
// path.
//
// By default the matcher compiles its dictionary into the dense kernel
// of internal/kernel: a cache-line-aligned []uint32 transition table
// per series slot (row width = the reduced alphabet rounded up to a
// power of two, 4 bytes per entry) with the byte→class reduction baked
// into a 256-entry map, scanned either by a single unrolled stream or
// by a K-way interleaved loop — the host-CPU analog of the paper's SPE
// local-store tile fed by multiple buffered streams (Figure 6a), where
// K independent cursors hide the latency of the dependent table loads.
// On the 1-byte kernel every piece of 2 KiB or more, each pooled
// parallel chunk included, scans as 4 such lanes (see InterleaveK).
//
// Fallback rules: when the aggregate dense-table size (states × row
// width × 4 bytes, summed over series slots) exceeds MaxTableBytes, or
// DisableKernel is set, the matcher scans with the original
// alphabet-reduce + dfa/stt lookup path instead. The choice is
// reported by Matcher.Stats().Engine ("kernel" or "stt").
type EngineOptions struct {
	// DisableKernel forces the stt/dfa scan path.
	DisableKernel bool
	// MaxTableBytes is the dense-table budget. <=0 means the kernel
	// default (8 MiB).
	MaxTableBytes int
	// InterleaveK fixes the kernel's lane count (each lane scans one
	// piece of the input, split with MaxPatternLen-1 overlap like the
	// paper's SPE input portions) on every path: FindAll, Count, and
	// each chunk of FindAllParallel, the pool and ScanReader. 1 pins the
	// single-stream loop everywhere, 2..8 force K lanes, 0 picks by
	// piece length: 4 lanes from 1 KiB up, the serial loop below (the
	// stride-2 pair loops stay serial unless pinned, the compressed
	// tier's chunk scans always do).
	InterleaveK int
	// MaxShards caps how many sub-dictionary kernels the sharded tier
	// may compile when the single dense table exceeds MaxTableBytes:
	// 0 means the kernel default (8, the paper's SPE count per Cell),
	// a negative value disables sharding entirely (over-budget
	// dictionaries go straight to the stt fallback), and values above
	// kernel.MaxShardsLimit (64) are clamped to it — a dictionary
	// needing more shards than that falls back to stt regardless.
	MaxShards int
	// Stride selects how many input bytes one kernel transition
	// consumes. 0 (auto) compiles 2-byte-stride class-pair tables on
	// top of the dense kernel when they fit MaxTableBytes alongside it,
	// the reduced alphabet is small enough
	// (kernel.AutoStride2MaxClasses), and the pair tables are
	// L2-resident (kernel.L2Budget) — the regime where one pair load
	// per two bytes actually beats two 1-byte loads; 1 pins the classic
	// byte-at-a-time kernel; 2 forces pair tables whenever they fit the
	// budget, ignoring both auto gates. Over-budget pair tables always
	// fall back to the 1-byte kernel — never to a lower rung — and
	// output is byte-identical at every stride. The live choice is
	// reported by Stats().Engine ("stride2" vs "kernel").
	Stride int
	// Compressed selects the compressed-row tier (internal/kernel
	// CTable): per-state class bitmaps with popcount rank into packed
	// explicit-transition arrays plus D²FA-style default-pointer
	// chains, fitting 10-100x larger state machines in cache at a few
	// extra ops per byte. CompressedAuto (the zero value) tries the
	// tier when the dense kernel is over budget and admits it when the
	// compressed footprint fits both MaxTableBytes and the L2 budget
	// (past L2 the residency advantage that pays for the extra ops is
	// gone, and the sharded tier below usually wins); CompressedOn
	// forces the tier — even when the dense kernel would fit — bounded
	// only by MaxTableBytes; CompressedOff skips it (the pre-PR-10
	// ladder). Output is byte-identical in every mode; the live choice
	// is reported by Stats().Engine ("compressed").
	Compressed CompressedMode
	// Filter selects the skip-scan front-end (internal/filter): a
	// BNDM-style reverse-suffix window filter built from the
	// dictionary's shortest-pattern prefixes that skips most input
	// bytes and hands only candidate windows to the engine ladder
	// above. The default FilterAuto enables it when the dictionary
	// qualifies (see FilterMode); output is byte-identical either way.
	Filter FilterMode
}

// FilterMode is the EngineOptions.Filter policy for the skip-scan
// front-end — the fourth rung of engine selection, sitting AHEAD of
// the kernel/sharded/stt verifier ladder rather than replacing it.
type FilterMode int

const (
	// FilterAuto (the zero value) enables the filter when it is likely
	// to win: the shortest pattern is at least filterAutoMinLen bytes,
	// the dictionary has at most filterAutoMaxPatterns entries, and
	// the filter's evidence tables stay under filterAutoMaxDensity
	// occupancy (a saturated filter cannot rule windows out and only
	// adds overhead).
	FilterAuto FilterMode = iota
	// FilterOn forces the filter whenever it is legal (shortest
	// pattern >= filter.MinWindow bytes). Dictionaries with a
	// single-byte pattern bypass it silently — there is nothing to
	// skip — and Stats().FilterEnabled reports false.
	FilterOn
	// FilterOff disables the filter: every byte goes through the
	// verifier engine, the pre-filter behavior.
	FilterOff
)

// Auto-enable gates for FilterAuto (see FilterMode).
const (
	filterAutoMinLen      = 4
	filterAutoMaxPatterns = 256
	filterAutoMaxDensity  = 0.75
)

// ParseFilterMode maps the flag vocabulary shared by the CLIs and the
// server ("auto"/"" , "on", "off") onto a FilterMode.
func ParseFilterMode(s string) (FilterMode, error) {
	switch s {
	case "", "auto":
		return FilterAuto, nil
	case "on":
		return FilterOn, nil
	case "off":
		return FilterOff, nil
	}
	return 0, fmt.Errorf("bad filter mode %q (want auto, on, or off)", s)
}

// CompressedMode is the EngineOptions.Compressed policy for the
// compressed-row tier (the ladder rung between the dense kernel and
// the sharded tier).
type CompressedMode int

const (
	// CompressedAuto (the zero value) admits the compressed tier when
	// the dense kernel is over budget and the compressed footprint is
	// L2-resident (and within MaxTableBytes).
	CompressedAuto CompressedMode = iota
	// CompressedOn forces the compressed tier whenever it fits
	// MaxTableBytes, skipping the dense kernel and the L2 auto gate.
	CompressedOn
	// CompressedOff disables the compressed tier: over-budget
	// dictionaries go straight to the sharded/stt rungs.
	CompressedOff
)

// ParseCompressed maps the flag vocabulary shared by the CLIs and the
// server ("auto"/"", "on", "off") onto a CompressedMode.
func ParseCompressed(s string) (CompressedMode, error) {
	switch s {
	case "", "auto":
		return CompressedAuto, nil
	case "on":
		return CompressedOn, nil
	case "off":
		return CompressedOff, nil
	}
	return 0, fmt.Errorf("bad compressed mode %q (want auto, on, or off)", s)
}

// ParseStride maps the flag vocabulary shared by the CLIs and the
// server ("auto"/"", "1", "2") onto an EngineOptions.Stride value.
func ParseStride(s string) (int, error) {
	switch s {
	case "", "auto":
		return 0, nil
	case "1":
		return 1, nil
	case "2":
		return 2, nil
	}
	return 0, fmt.Errorf("bad stride %q (want auto, 1, or 2)", s)
}

// Matcher is a compiled dictionary.
type Matcher struct {
	sys      *compose.System
	opts     Options
	patterns [][]byte
	minLen   int             // shortest dictionary pattern (regex: shortest possible match)
	regex    bool            // dictionary entries are regular expressions
	v        kernel.Verifier // the live rung of the selection ladder
	v1       kernel.Verifier // v's 1-byte view (v itself off the stride-2 rung)
	filter   *filter.Filter  // nil when the skip-scan front-end is off/bypassed

	// windowsSkipped counts window positions the skip-scan front-end
	// never examined, accumulated across every scan (FindAll, parallel,
	// streams). Atomic: serving paths read Stats() concurrently with
	// in-flight scans.
	windowsSkipped atomic.Uint64

	// setFP caches PatternSetFingerprint (patterns are immutable after
	// compile); Once-guarded because serving paths may race the first
	// computation.
	setFPOnce sync.Once
	setFP     [32]byte

	// cellStates caches the state count of each Figure 3 tile — the
	// Cell model behind Stats' paper fields. A one-slot host system
	// counts them on the dictionary's trie, so they are computed on
	// first use, off the compile, reload and scan paths.
	cellOnce   sync.Once
	cellStates []int
}

// Options returns the options the matcher was compiled with — what a
// delta loader needs to recompile an edited dictionary identically.
func (m *Matcher) Options() Options { return m.opts }

// finish completes a matcher whose system and dictionary are set: the
// verifier from the selection ladder, then the skip-scan front-end.
// prev, reused and ds are selectVerifier's delta inputs (nil on a cold
// build).
func (m *Matcher) finish(prev *Matcher, reused []bool, ds *DeltaStats) (*Matcher, error) {
	v, err := m.selectVerifier(prev, reused, ds)
	if err != nil {
		return nil, err
	}
	m.v, m.v1 = v, kernel.OneByte(v)
	if err := m.initFilter(); err != nil {
		return nil, err
	}
	return m, nil
}

// selectVerifier walks the selection ladder — the one place that names
// the rungs: the dense kernel (with stride-2 pair tables when they
// qualify), then the compressed-row tier, then the sharded multi-kernel
// engine, then the stt/dfa path. Budget overruns step down the ladder;
// any other compile failure is a real defect and propagates.
//
// prev, when non-nil, is the matcher an incremental recompile patches
// (RecompileDelta): dense tables whose slot automaton (reused[i]) AND
// global pattern ids are unchanged are adopted from prev's kernel, and
// prev's shard engines go to the fingerprint-keyed sharded delta path,
// with shard reuse tallied into ds. Reused units are immutable and
// rebuilt ones run the cold construction, so the result is
// byte-identical to a cold build; the compressed tier always compiles
// cold (its build is cheap and deterministic).
func (m *Matcher) selectVerifier(prev *Matcher, reused []bool, ds *DeltaStats) (kernel.Verifier, error) {
	if s := m.opts.Engine.Stride; s < 0 || s > 2 {
		return nil, fmt.Errorf("core: bad stride %d (want 0 auto, 1, or 2)", s)
	}
	if cm := m.opts.Engine.Compressed; cm < CompressedAuto || cm > CompressedOff {
		return nil, fmt.Errorf("core: bad compressed mode %d", cm)
	}
	stt := kernel.NewSTT(m.sys)
	if m.opts.Engine.DisableKernel {
		return stt, nil
	}
	var prevTables []*kernel.Table
	var prevSharded *kernel.Sharded
	var prevPatterns [][]byte
	if prev != nil {
		if e, ok := prev.v.(*kernel.Engine); ok {
			prevTables = e.Tables
		}
		prevSharded, _ = prev.v.(*kernel.Sharded)
		prevPatterns = prev.patterns
	}
	kopts := kernel.Options{
		MaxTableBytes: m.opts.Engine.MaxTableBytes,
		InterleaveK:   m.opts.Engine.InterleaveK,
		Stride:        m.opts.Engine.Stride,
		Workers:       m.opts.CompileWorkers,
	}
	if m.opts.Engine.Compressed != CompressedOn {
		eng, err := kernel.CompileReusing(m.sys, kopts, m.reusableTables(prev, prevTables, reused))
		if err == nil {
			return eng, nil
		}
		if !errors.Is(err, kernel.ErrBudget) {
			return nil, err
		}
	}
	if m.opts.Engine.Compressed != CompressedOff {
		// The hard budget is the resolved MaxTableBytes; CompressedAuto
		// also caps it at L2Budget — the tier trades extra ops per byte
		// for cache residency, so a compressed table that spills past L2
		// has given up the advantage and the sharded tier is the better
		// fallback.
		kopts.MaxTableBytes = kernel.ResolveMaxTableBytes(m.opts.Engine.MaxTableBytes)
		if m.opts.Engine.Compressed == CompressedAuto {
			kopts.MaxTableBytes = min(kopts.MaxTableBytes, kernel.L2Budget)
		}
		comp, err := kernel.CompileCompressed(m.sys, kopts)
		if err == nil {
			return comp, nil
		}
		if !errors.Is(err, kernel.ErrBudget) {
			return nil, err
		}
	}
	// Sharding is off below zero; and the shard planner repartitions
	// literal patterns by trie size, which regex dictionaries lack, so
	// over-budget ones go straight to the stt fallback. (The compressed
	// tier above compiles from the slot DFAs and serves regex
	// dictionaries fine — this cliff starts below it.)
	if m.opts.Engine.MaxShards < 0 || m.regex {
		return stt, nil
	}
	sh, shReused, err := kernel.CompileShardedDelta(m.patterns, kernel.ShardConfig{
		CaseFold:      m.opts.CaseFold,
		MaxTableBytes: m.opts.Engine.MaxTableBytes,
		MaxShards:     m.opts.Engine.MaxShards,
		Workers:       m.opts.CompileWorkers,
		InterleaveK:   m.opts.Engine.InterleaveK,
	}, prevSharded, prevPatterns)
	if errors.Is(err, kernel.ErrBudget) {
		return stt, nil // cannot shard within constraints
	}
	if err != nil {
		return nil, err
	}
	if ds != nil {
		for _, r := range shReused {
			if r {
				ds.ShardsReused++
			} else {
				ds.ShardsRebuilt++
			}
		}
	}
	return sh, nil
}

// reusableTables maps each of m's slots to prev's compiled dense table
// (donor, one per prev slot) when the slot automaton survived the delta
// (reused[i]) and its global pattern ids are unchanged, nil otherwise;
// nil altogether without donor tables.
func (m *Matcher) reusableTables(prev *Matcher, donor []*kernel.Table, reused []bool) []*kernel.Table {
	if donor == nil || len(donor) != len(prev.sys.Slots) {
		return nil
	}
	oldSlot := make(map[*dfa.DFA]int, len(prev.sys.Slots))
	for j, d := range prev.sys.Slots {
		if _, dup := oldSlot[d]; !dup {
			oldSlot[d] = j
		}
	}
	prebuilt := make([]*kernel.Table, len(m.sys.Slots))
	for i, d := range m.sys.Slots {
		j, ok := oldSlot[d]
		// A reused automaton is content-identical, but the table also
		// bakes global pattern ids into its out sets — an insert that
		// shifted later ids invalidates the table even though the
		// automaton survived.
		if reused[i] && ok && slices.Equal(m.sys.SlotPatterns[i], prev.sys.SlotPatterns[j]) {
			prebuilt[i] = donor[j]
		}
	}
	return prebuilt
}

// initFilter builds the skip-scan front-end per EngineOptions.Filter.
// Dictionaries the filter cannot serve (shortest pattern a single
// byte) bypass it silently even under FilterOn; FilterAuto
// additionally requires the auto gates to pass. Out-of-range modes
// are rejected here so every compiled matcher's options survive the
// Save/Load round trip (Load enforces the same bound).
func (m *Matcher) initFilter() error {
	mode := m.opts.Engine.Filter
	if mode < FilterAuto || mode > FilterOff {
		return fmt.Errorf("core: bad filter mode %d", mode)
	}
	if mode == FilterOff || m.minLen < filter.MinWindow {
		return nil
	}
	if m.regex {
		// The filter's evidence tables are built from literal pattern
		// prefixes; regular expressions have none, so the front-end is
		// bypassed (silently, like single-byte dictionaries under
		// FilterOn) and every byte goes through the verifier engine.
		return nil
	}
	// The cheap auto gates come before the build so non-qualifying
	// dictionaries (short minimums, large pattern sets) pay nothing.
	if mode == FilterAuto &&
		(m.minLen < filterAutoMinLen || len(m.patterns) > filterAutoMaxPatterns) {
		return nil
	}
	f, err := filter.Build(m.patterns, m.sys.Red)
	if err != nil {
		return err
	}
	if mode == FilterAuto && f.Density() > filterAutoMaxDensity {
		return nil
	}
	m.filter = f
	return nil
}

// composeConfig is the composition every literal compile, delta and
// Cell model of opts shares. While the dense kernel can serve (not
// disabled, not bypassed by CompressedOn) and no tile budget is
// pinned, a dictionary whose whole automaton fits the kernel's byte
// budget composes as one slot: every input byte then crosses one
// table, not one per 1520-state Figure 3 tile. Everything else keeps
// the tiling.
func composeConfig(opts Options) compose.Config {
	cfg := compose.Config{
		MaxStatesPerTile: opts.MaxStatesPerTile,
		Groups:           opts.Groups,
		CaseFold:         opts.CaseFold,
		Workers:          opts.CompileWorkers,
	}
	if !opts.Engine.DisableKernel && opts.Engine.Compressed != CompressedOn {
		cfg.HostTableBytes = kernel.ResolveMaxTableBytes(opts.Engine.MaxTableBytes)
	}
	return cfg
}

// Compile builds a matcher from exact byte-string patterns.
func Compile(patterns [][]byte, opts Options) (*Matcher, error) {
	sys, err := compose.NewSystem(patterns, composeConfig(opts))
	if err != nil {
		return nil, err
	}
	cp := make([][]byte, len(patterns))
	for i, p := range patterns {
		cp[i] = append([]byte(nil), p...)
	}
	return (&Matcher{sys: sys, opts: opts, patterns: cp, minLen: shortest(cp)}).finish(nil, nil, nil)
}

// shortest is the length of the shortest pattern (0 for none).
func shortest(patterns [][]byte) int {
	minLen := 0
	for _, p := range patterns {
		if minLen == 0 || len(p) < minLen {
			minLen = len(p)
		}
	}
	return minLen
}

// CompileRegexSearch builds a matcher from a dictionary of regular
// expressions with full search semantics: a hit is reported at every
// input offset where some substring ending there matches an
// expression, exactly the (End, Pattern) contract of literal
// dictionaries — so the compiled matcher rides the same engine
// machinery (dense kernel, parallel chunking, streams, artifacts) and
// serves through cellmatchd unchanged. Match.Pattern indexes exprs;
// Pattern(i) returns the expression source.
//
// Two restrictions (enforced at compile time) keep the chunk-overlap
// arithmetic exact: no expression may match the empty string, and
// every expression needs a bounded maximum match length — no '*', '+'
// or '{m,}' (use '{m,n}', or RegexSet for whole-input matching of
// unbounded expressions). The sharded tier and the skip-scan filter
// are literal-only and are bypassed: engine selection is kernel → stt.
func CompileRegexSearch(exprs []string, opts Options) (*Matcher, error) {
	minLen, _, err := dfa.RegexDictionaryInfo(exprs)
	if err != nil {
		return nil, err
	}
	sys, err := compose.NewRegexSystem(exprs, compose.Config{
		MaxStatesPerTile: opts.MaxStatesPerTile,
		Groups:           opts.Groups,
		CaseFold:         opts.CaseFold,
		Workers:          opts.CompileWorkers,
	})
	if err != nil {
		return nil, err
	}
	cp := make([][]byte, len(exprs))
	for i, e := range exprs {
		cp[i] = []byte(e)
	}
	return (&Matcher{sys: sys, opts: opts, patterns: cp, minLen: minLen, regex: true}).finish(nil, nil, nil)
}

// IsRegex reports whether the dictionary entries are regular
// expressions (compiled by CompileRegexSearch) rather than literal
// byte strings. For regex matchers a match's length is not the
// pattern's source length, so start offsets cannot be derived from
// Pattern(i).
func (m *Matcher) IsRegex() bool { return m.regex }

// CompileStrings is Compile for string dictionaries.
func CompileStrings(patterns []string, opts Options) (*Matcher, error) {
	bs := make([][]byte, len(patterns))
	for i, s := range patterns {
		if s == "" {
			return nil, fmt.Errorf("core: pattern %d is empty", i)
		}
		bs[i] = []byte(s)
	}
	return Compile(bs, opts)
}

// ScanOptions are the per-call opt-outs of a scan. Output is
// byte-identical under every combination; they exist for differential
// testing and as the serving layer's filter=off / stride=1 knobs.
type ScanOptions struct {
	// DisableFilter bypasses the skip-scan front-end: every byte goes
	// through the verifier.
	DisableFilter bool
	// DisableStride2 scans on the verifier's 1-byte view: the stride-2
	// rung steps one byte per transition on its dense tables (no-op on
	// every other rung).
	DisableStride2 bool
}

// FindAll reports every dictionary occurrence in data. With the
// skip-scan front-end live (EngineOptions.Filter) most input bytes are
// never read: the window filter yields candidate segments and only
// those pass through the verifier. Otherwise the scan is a single pass
// over the raw bytes on the live rung of the selection ladder. Every
// configuration produces byte-identical results in the same
// (End, Pattern) order.
func (m *Matcher) FindAll(data []byte) ([]Match, error) {
	return m.FindAllWith(data, ScanOptions{})
}

// FindAllUnfiltered is FindAll with the skip-scan front-end bypassed:
// every byte goes through the verifier. It is the reference path the
// filter is differentially tested against.
func (m *Matcher) FindAllUnfiltered(data []byte) ([]Match, error) {
	return m.FindAllWith(data, ScanOptions{DisableFilter: true})
}

// FindAllWith is the sequential scan under per-call opt-outs — the one
// entry point behind FindAll, FindAllUnfiltered, and the serving
// layer's mode=seq.
func (m *Matcher) FindAllWith(data []byte, o ScanOptions) ([]Match, error) {
	v := m.verifier(o)
	if m.filter == nil || o.DisableFilter {
		return convertMatches(v.FindAll(data)), nil
	}
	// Segments are disjoint and ordered and every match lies wholly
	// inside one (the filter's containment guarantee), so concatenating
	// the per-segment sorted matches reproduces the global order.
	segs, skipped := m.filter.Segments(data)
	m.windowsSkipped.Add(uint64(skipped))
	out := make([]Match, 0)
	for _, sg := range segs {
		out = append(out, scanSegment(v, data[sg.Start:sg.End], sg.Start)...)
	}
	return out, nil
}

// verifier is the rung a call scans on: the live verifier, or its
// 1-byte view under DisableStride2.
func (m *Matcher) verifier(o ScanOptions) kernel.Verifier {
	if o.DisableStride2 {
		return m.v1
	}
	return m.v
}

// Stride reports the live kernel transition stride: 2 when the
// stride-2 pair tables are up, 1 for the 1-byte kernel, compressed,
// and sharded tiers, 0 on the stt fallback.
func (m *Matcher) Stride() int { return m.v.Stride() }

// scanSegment scans one piece from the root state with every unit of
// v, returning matches sorted by (End, Pattern) with End offsets
// shifted by base — the verification unit of the filtered paths.
func scanSegment(v kernel.Verifier, piece []byte, base int) []Match {
	var raw []dfa.Match
	for u := 0; u < v.Units(); u++ {
		raw = append(raw, v.ScanUnit(u, piece, base, 0)...)
	}
	dfa.SortMatches(raw)
	return convertMatches(raw)
}

func convertMatches(raw []dfa.Match) []Match {
	out := make([]Match, len(raw))
	for i, r := range raw {
		out[i] = Match{Pattern: int(r.Pattern), End: r.End}
	}
	return out
}

// Count returns the number of occurrences in data. The kernel path
// counts without materializing (or sorting) the match list; with the
// filter live only candidate segments are counted.
func (m *Matcher) Count(data []byte) (int, error) {
	if m.filter == nil {
		return m.v.Count(data), nil
	}
	segs, skipped := m.filter.Segments(data)
	m.windowsSkipped.Add(uint64(skipped))
	total := 0
	for _, sg := range segs {
		total += m.v.Count(data[sg.Start:sg.End])
	}
	return total, nil
}

// Contains reports whether any dictionary entry occurs in data — the
// packet-discard decision of the paper's NIDS scenario.
func (m *Matcher) Contains(data []byte) (bool, error) {
	n, err := m.Count(data)
	return n > 0, err
}

// Pattern returns dictionary entry i.
func (m *Matcher) Pattern(i int) []byte { return m.patterns[i] }

// NumPatterns returns the dictionary size.
func (m *Matcher) NumPatterns() int { return len(m.patterns) }

// Stats describe the compiled artifact: dictionary shape, alphabet
// reduction, and which scan engine is live with its cache residency,
// so callers never need to reach into internal/stt or internal/kernel.
//
// States, SeriesDepth, TilesRequired and STTBytes describe the Cell
// model: the dictionary's Figure 3 tiling, which may differ from the
// host composition that scans (see Slots).
type Stats struct {
	Patterns      int
	States        int // aggregate across the Figure 3 tiles
	SeriesDepth   int // Figure 3 tiles in series
	Groups        int
	TilesRequired int
	STTBytes      int // aggregate encoded tile size at the system width
	AlphabetUsed  int // distinct reduced symbol classes the dictionary uses
	MaxPatternLen int

	// Slots is the number of automata each input byte passes through
	// on the live rung: 1 when the whole dictionary fits one host
	// table, the Figure 3 tile count when it is tiled, the table count
	// summed over shards on the sharded rung.
	Slots int

	// Regex reports a regular-expression dictionary (CompileRegexSearch):
	// patterns are expression sources, MinPatternLen/MaxPatternLen are
	// match-length bounds, and the sharded/filter rungs are bypassed.
	Regex bool

	// Engine is the live scan engine behind FindAll and friends:
	// "stride2" (the dense kernel with 2-byte-stride class-pair tables
	// layered on top), "kernel" (one dense compiled table set consuming
	// one byte per transition), "compressed" (bitmap rows + popcount
	// rank + default-pointer chains for over-dense-budget
	// dictionaries), "sharded" (the multi-kernel tier: one dense table
	// set per dictionary shard), or "stt" (the reduce + dfa/stt lookup
	// fallback).
	Engine string
	// Stride is the live kernel's bytes-per-transition (2 on the
	// stride-2 rung, 1 on every other kernel tier, 0 on the stt path).
	Stride int
	// KernelTableBytes is the aggregate dense-table footprint across
	// all shards (0 when no kernel tier is live). It does NOT include
	// pair tables; see PairTableBytes.
	KernelTableBytes int
	// PairTableBytes is the aggregate 2-byte-stride pair-table
	// footprint (0 unless Engine == "stride2"). Cache residency on the
	// stride-2 rung is judged on KernelTableBytes + PairTableBytes:
	// the pair tables are the hot loop's working set and the dense
	// tables still serve epilogues, odd tails, and stream carries.
	PairTableBytes int
	// CompressedTableBytes is the compressed-row tier's aggregate
	// footprint — bitmaps, default pointers, offsets, and packed
	// explicit entries (0 unless Engine == "compressed"). Cache
	// residency on that tier is judged on this number.
	CompressedTableBytes int
	// DenseTableBudget is the byte budget the kernel was compiled
	// against — per shard when the sharded tier is live (the fallback
	// threshold either way). Always kernel.ResolveMaxTableBytes of the
	// configured EngineOptions.MaxTableBytes, so it cannot drift from
	// the admission checks inside internal/kernel.
	DenseTableBudget int
	// Shards is the shard count of the sharded tier (0 otherwise).
	Shards int
	// MaxShardTableBytes is the largest single shard's footprint — the
	// cache-residency unit of the sharded tier, since only one shard's
	// tables are hot at a time (0 when not sharded).
	MaxShardTableBytes int
	// TableFitsL1 and TableFitsL2 classify residency of the live
	// kernel tables against typical per-core cache sizes (32 KiB L1d,
	// 1 MiB L2) — the host analog of the paper's local-store budget.
	// For the sharded tier the unit is the largest single shard.
	TableFitsL1 bool
	TableFitsL2 bool

	// MinPatternLen is the shortest dictionary pattern — the window
	// length the skip-scan front-end slides (and the reason it may be
	// bypassed: windows below 2 bytes cannot skip).
	MinPatternLen int
	// FilterEnabled reports whether the skip-scan front-end is live
	// ahead of the verifier engine; FilterWindow is its window length
	// (0 when disabled).
	FilterEnabled bool
	FilterWindow  int
	// WindowsSkipped is the cumulative count of window positions the
	// filter skipped without examining, across every scan this matcher
	// has served — the sublinearity evidence. Read atomically; scans
	// may be in flight. The count is operational, not exact: chunked
	// (parallel) and streamed scans re-filter their bounded overlap /
	// tail regions, whose windows are counted once per view, so the
	// counter can exceed the single-pass window count on such paths.
	WindowsSkipped uint64
}

// Stats reports the compiled matcher's shape. The first call on a
// one-slot host system larger than a tile pays the Figure 3 partition
// pass behind the Cell fields; serving paths use LiveStats.
func (m *Matcher) Stats() Stats {
	s := m.LiveStats()
	tiles := m.cellTileStates()
	s.States = 0
	for _, n := range tiles {
		s.States += n
	}
	s.SeriesDepth = len(tiles)
	s.TilesRequired = m.sys.Topology.Groups * len(tiles)
	s.STTBytes = s.States * m.sys.Width * 4 // one stt row per state
	return s
}

// LiveStats is Stats without the Cell model: States counts the states
// of the automata that scan (summed over the system's slots), and
// SeriesDepth, TilesRequired and STTBytes are zero. It never runs the
// partition pass, so reload replies and logs can afford it.
func (m *Matcher) LiveStats() Stats {
	s := Stats{
		Patterns:      len(m.patterns),
		Groups:        m.sys.Topology.Groups,
		AlphabetUsed:  m.sys.Red.Classes,
		MaxPatternLen: m.sys.MaxPatternLen,
		Regex:         m.regex,
	}
	for _, d := range m.sys.Slots {
		s.States += d.NumStates()
	}
	s.DenseTableBudget = kernel.ResolveMaxTableBytes(m.opts.Engine.MaxTableBytes)
	s.MinPatternLen = m.minLen
	s.WindowsSkipped = m.windowsSkipped.Load()
	if m.filter != nil {
		s.FilterEnabled = true
		s.FilterWindow = m.filter.Window
	}
	fp := m.v.Footprint()
	s.Engine = m.v.Name()
	s.Stride = m.v.Stride()
	s.KernelTableBytes = fp.KernelTableBytes
	s.PairTableBytes = fp.PairTableBytes
	s.CompressedTableBytes = fp.CompressedTableBytes
	s.Shards = fp.Shards
	s.MaxShardTableBytes = fp.MaxShardTableBytes
	s.Slots = fp.Slots
	s.TableFitsL1 = fp.Resident > 0 && fp.Resident <= kernel.L1DataBudget
	s.TableFitsL2 = fp.Resident > 0 && fp.Resident <= kernel.L2Budget
	return s
}

// cellTileStates returns (computing on first use) the state count of
// each Figure 3 tile of the dictionary.
func (m *Matcher) cellTileStates() []int {
	m.cellOnce.Do(func() {
		var err error
		if !m.regex {
			m.cellStates, err = m.sys.CellTileStates(m.patterns, composeConfig(m.opts))
		}
		if m.regex || err != nil {
			// Regex systems are always tiled; a loaded artifact whose
			// patterns no tile holds keeps its own slots.
			m.cellStates = make([]int, len(m.sys.Slots))
			for i, d := range m.sys.Slots {
				m.cellStates[i] = d.NumStates()
			}
		}
	})
	return m.cellStates
}

// CellSystem returns the system the Cell model plans on: the
// dictionary's Figure 3 tiling, composed afresh when the matcher scans
// one host slot larger than a tile (System otherwise).
func (m *Matcher) CellSystem() (*compose.System, error) {
	if m.regex {
		return m.sys, nil
	}
	return m.sys.CellTiling(m.patterns, composeConfig(m.opts))
}

// FilterActive reports whether the skip-scan front-end is live — the
// cheap per-request form for serving paths.
func (m *Matcher) FilterActive() bool { return m.filter != nil }

// EngineName reports the live scan engine ("stride2", "kernel",
// "compressed", "sharded", or "stt") without computing full Stats —
// the cheap per-request form for serving paths.
func (m *Matcher) EngineName() string { return m.v.Name() }

// System exposes the composed system that scans, for advanced use.
func (m *Matcher) System() *compose.System { return m.sys }

// CompileRegexSet builds a single-automaton matcher from regular
// expressions (the paper's Section 1 notes dictionaries "expressed as
// a set of regular expressions" compile into one DFA). Matches are
// reported per-expression via acceptance of any; position reporting
// requires exact-string dictionaries.
type RegexSet struct {
	dfas []*dfa.DFA
	red  *alphabet.Reduction
}

// CompileRegexes compiles each expression over the shared reduction.
func CompileRegexes(exprs []string, caseFold bool) (*RegexSet, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("core: no expressions")
	}
	var red *alphabet.Reduction
	if caseFold {
		red = alphabet.CaseFold32()
	} else {
		red = alphabet.Identity()
	}
	rs := &RegexSet{red: red}
	for i, e := range exprs {
		d, err := dfa.CompileRegex(e, red)
		if err != nil {
			return nil, fmt.Errorf("core: expression %d: %w", i, err)
		}
		rs.dfas = append(rs.dfas, d)
	}
	return rs, nil
}

// MatchWhole reports which expressions accept the entire input.
func (r *RegexSet) MatchWhole(data []byte) []int {
	reduced := r.red.Reduce(data)
	var out []int
	for i, d := range r.dfas {
		if d.Accept[d.Run(d.Start, reduced)] {
			out = append(out, i)
		}
	}
	return out
}

// Stream is an incremental scanner: feed data in arbitrary chunk
// sizes; matches carry global offsets. A Stream holds one carried
// cursor per verifier carry table (or, with the skip-scan front-end
// live, the last MaxPatternLen-1 bytes), so memory is O(dictionary),
// not O(input).
type Stream struct {
	m      *Matcher
	tables []kernel.CarryScanner // the verifier's carry tables
	rows   []uint32              // per-table carried value

	// Filtered mode: the window filter needs whole windows, so the
	// stream carries the previous chunks' tail (MaxPatternLen-1 bytes)
	// and rescans it with each Write — partial windows straddling a
	// cut re-form in the next Write's view, and matches ending inside
	// the carried tail were reported by the previous Write and are
	// deduplicated, exactly like a parallel chunk's overlap prefix.
	filt *filter.Filter
	tail []byte
	buf  []byte // scratch: tail + incoming chunk

	offset int
	found  []Match
}

// NewStream starts an incremental scan.
func (m *Matcher) NewStream() *Stream {
	st := &Stream{m: m}
	if m.filter != nil {
		st.filt = m.filter
		return st
	}
	st.tables = m.v.CarryTables()
	st.rows = make([]uint32, len(st.tables))
	for i, t := range st.tables {
		st.rows[i] = t.StartRow()
	}
	return st
}

// writeFiltered is Write on the skip-scan path: filter the carried
// tail plus the new chunk, verify candidate segments from the root,
// and drop matches ending inside the tail (already reported).
func (s *Stream) writeFiltered(p []byte) {
	s.buf = append(append(s.buf[:0], s.tail...), p...)
	text := s.buf
	segs, skipped := s.filt.Segments(text)
	s.m.windowsSkipped.Add(uint64(skipped))
	dedupe := len(s.tail)
	base := s.offset - dedupe
	for _, sg := range segs {
		for _, mt := range scanSegment(s.m.v, text[sg.Start:sg.End], sg.Start) {
			if mt.End <= dedupe {
				continue // reported by the previous Write
			}
			mt.End += base
			s.found = append(s.found, mt)
		}
	}
	s.offset += len(p)
	keep := s.m.sys.MaxPatternLen - 1
	if keep > len(text) {
		keep = len(text)
	}
	s.tail = append(s.tail[:0], text[len(text)-keep:]...)
}

// Write consumes the next chunk. It never fails; the error satisfies
// io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.filt != nil {
		s.writeFiltered(p)
		return len(p), nil
	}
	for i, t := range s.tables {
		s.rows[i] = t.ScanCarry(p, s.rows[i], func(pid int32, end int) {
			s.found = append(s.found, Match{Pattern: int(pid), End: s.offset + end})
		})
	}
	s.offset += len(p)
	return len(p), nil
}

// Matches returns the hits so far, in feed order per slot. Call after
// the final Write.
func (s *Stream) Matches() []Match { return s.found }

// BytesSeen reports the total volume consumed.
func (s *Stream) BytesSeen() int { return s.offset }
