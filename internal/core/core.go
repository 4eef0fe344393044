// Package core is the library facade over the paper's system: compile
// a dictionary (exact strings or regular expressions) into DFA tiles,
// scan data or streams, and predict Cell-deployment performance.
//
// The zero-configuration path:
//
//	m, err := core.Compile([][]byte{[]byte("virus")}, core.Options{CaseFold: true})
//	matches := m.FindAll(data)
//
// matches every dictionary entry with the paper's alphabet-reduced,
// pointer-encoded Aho-Corasick machinery; EstimateCell and Table1
// expose the performance-model side.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/cell"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/filter"
	"cellmatch/internal/kernel"
	"cellmatch/internal/stt"
	"cellmatch/internal/tile"
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
	// piece length: 4 lanes from 2 KiB up, the serial loop below (the
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
	minLen   int                // shortest dictionary pattern (regex: shortest possible match)
	regex    bool               // dictionary entries are regular expressions
	eng      *kernel.Engine     // nil when the dense kernel is disabled or over budget
	comp     *kernel.Compressed // nil unless the compressed-row tier is live
	sharded  *kernel.Sharded    // nil unless the sharded tier is live
	filter   *filter.Filter     // nil when the skip-scan front-end is off/bypassed

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

	// sttBytes caches Stats().STTBytes, the slots' encoded stt size:
	// encoding every slot is the expensive part of Stats, and /stats
	// calls it per request. Computed on first use, not at compile, so
	// compile latency does not carry it.
	sttOnce  sync.Once
	sttBytes int
}

// Options returns the options the matcher was compiled with — what a
// delta loader needs to recompile an edited dictionary identically.
func (m *Matcher) Options() Options { return m.opts }

// initEngine walks the selection ladder: the single dense kernel, then
// the compressed-row tier, then the sharded multi-kernel engine, then
// the stt/dfa path (m.eng, m.comp, and m.sharded all nil). Budget
// overruns step down the ladder; any other compile failure is a real
// defect and propagates.
func (m *Matcher) initEngine() error {
	if s := m.opts.Engine.Stride; s < 0 || s > 2 {
		return fmt.Errorf("core: bad stride %d (want 0 auto, 1, or 2)", s)
	}
	if cm := m.opts.Engine.Compressed; cm < CompressedAuto || cm > CompressedOff {
		return fmt.Errorf("core: bad compressed mode %d", cm)
	}
	if m.opts.Engine.DisableKernel {
		return nil
	}
	if m.opts.Engine.Compressed != CompressedOn {
		eng, err := kernel.Compile(m.sys, kernel.Options{
			MaxTableBytes: m.opts.Engine.MaxTableBytes,
			InterleaveK:   m.opts.Engine.InterleaveK,
			Stride:        m.opts.Engine.Stride,
			Workers:       m.opts.CompileWorkers,
		})
		if err == nil {
			m.eng = eng
			return nil
		}
		if !errors.Is(err, kernel.ErrBudget) {
			return err
		}
	}
	if err := m.initCompressed(); err != nil {
		return err
	}
	if m.comp != nil {
		return nil
	}
	if m.opts.Engine.MaxShards < 0 {
		return nil // sharding disabled: stt fallback
	}
	if m.regex {
		// The shard planner repartitions literal patterns by trie size;
		// regex dictionaries have no such decomposition, so over-budget
		// ones go straight to the stt fallback. (The compressed tier
		// above compiles from the slot DFAs and serves regex
		// dictionaries fine — this cliff starts below it.)
		return nil
	}
	sh, err := kernel.CompileSharded(m.patterns, kernel.ShardConfig{
		CaseFold:      m.opts.CaseFold,
		MaxTableBytes: m.opts.Engine.MaxTableBytes,
		MaxShards:     m.opts.Engine.MaxShards,
		Workers:       m.opts.CompileWorkers,
		InterleaveK:   m.opts.Engine.InterleaveK,
	})
	if err == nil {
		m.sharded = sh
		return nil
	}
	if errors.Is(err, kernel.ErrBudget) {
		return nil // cannot shard within constraints: stt fallback
	}
	return err
}

// initCompressed tries the compressed-row tier per
// EngineOptions.Compressed. The hard budget is always the resolved
// MaxTableBytes; CompressedAuto additionally caps it at L2Budget —
// the tier trades extra ops per byte for cache residency, so a
// compressed table that spills past L2 has given up the advantage and
// the sharded tier below is the better fallback. A budget miss leaves
// m.comp nil (the ladder steps down); any other failure propagates.
func (m *Matcher) initCompressed() error {
	if m.opts.Engine.Compressed == CompressedOff {
		return nil
	}
	budget := kernel.ResolveMaxTableBytes(m.opts.Engine.MaxTableBytes)
	if m.opts.Engine.Compressed == CompressedAuto && budget > kernel.L2Budget {
		budget = kernel.L2Budget
	}
	comp, err := kernel.CompileCompressed(m.sys, kernel.Options{
		MaxTableBytes: budget,
		InterleaveK:   m.opts.Engine.InterleaveK,
		Workers:       m.opts.CompileWorkers,
	})
	if err == nil {
		m.comp = comp
		return nil
	}
	if errors.Is(err, kernel.ErrBudget) {
		return nil
	}
	return err
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

// Compile builds a matcher from exact byte-string patterns.
func Compile(patterns [][]byte, opts Options) (*Matcher, error) {
	sys, err := compose.NewSystem(patterns, compose.Config{
		MaxStatesPerTile: opts.MaxStatesPerTile,
		Groups:           opts.Groups,
		CaseFold:         opts.CaseFold,
		Workers:          opts.CompileWorkers,
	})
	if err != nil {
		return nil, err
	}
	cp := make([][]byte, len(patterns))
	minLen := 0
	for i, p := range patterns {
		cp[i] = append([]byte(nil), p...)
		if minLen == 0 || len(p) < minLen {
			minLen = len(p)
		}
	}
	m := &Matcher{sys: sys, opts: opts, patterns: cp, minLen: minLen}
	if err := m.initEngine(); err != nil {
		return nil, err
	}
	if err := m.initFilter(); err != nil {
		return nil, err
	}
	return m, nil
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
	m := &Matcher{sys: sys, opts: opts, patterns: cp, minLen: minLen, regex: true}
	if err := m.initEngine(); err != nil {
		return nil, err
	}
	if err := m.initFilter(); err != nil {
		return nil, err
	}
	return m, nil
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

// FindAll reports every dictionary occurrence in data. With the
// skip-scan front-end live (EngineOptions.Filter) most input bytes are
// never read: the window filter yields candidate segments and only
// those pass through the verifier engine. Otherwise the scan is a
// single pass over the raw bytes — the dense kernel by default, the
// stt/dfa fallback when disabled or over budget. Every configuration
// produces byte-identical results in the same (End, Pattern) order.
func (m *Matcher) FindAll(data []byte) ([]Match, error) {
	if m.filter != nil {
		return m.findAllFiltered(data, false)
	}
	return m.FindAllUnfiltered(data)
}

// FindAllStride1 is FindAll with the stride-2 pair loops bypassed for
// this request: the verifier engine steps one byte per transition on
// its dense tables. Output is byte-identical to FindAll — the knob is
// the differential-testing and serving-layer opt-out for the stride-2
// rung, mirroring FindAllUnfiltered for the filter rung. On matchers
// without a live stride-2 rung it is exactly FindAll.
func (m *Matcher) FindAllStride1(data []byte) ([]Match, error) {
	if m.eng == nil || m.eng.Stride() != 2 {
		return m.FindAll(data)
	}
	if m.filter != nil {
		return m.findAllFiltered(data, true)
	}
	return convertMatches(m.eng.FindAllStride1(data)), nil
}

// FindAllUnfilteredStride1 combines both per-request opt-outs: no
// skip-scan front-end AND 1-byte kernel stepping. It is the fully
// pinned sequential reference path (what the conformance harness
// compiles explicitly) available on any matcher without recompiling.
func (m *Matcher) FindAllUnfilteredStride1(data []byte) ([]Match, error) {
	if m.eng != nil {
		return convertMatches(m.eng.FindAllStride1(data)), nil
	}
	return m.FindAllUnfiltered(data)
}

// Stride reports the live kernel transition stride: 2 when the
// stride-2 pair tables are up, 1 for the 1-byte kernel, compressed,
// and sharded tiers, 0 when no kernel-family engine is live (stt
// fallback).
func (m *Matcher) Stride() int {
	switch {
	case m.eng != nil:
		return m.eng.Stride()
	case m.comp != nil, m.sharded != nil:
		return 1
	default:
		return 0
	}
}

// FindAllUnfiltered is FindAll with the skip-scan front-end bypassed:
// every byte goes through the verifier engine. It is the reference
// path the filter is differentially tested against, and the per-request
// opt-out the serving layer exposes.
func (m *Matcher) FindAllUnfiltered(data []byte) ([]Match, error) {
	if m.eng != nil {
		return convertMatches(m.eng.FindAll(data)), nil
	}
	if m.comp != nil {
		return convertMatches(m.comp.FindAll(data)), nil
	}
	if m.sharded != nil {
		return convertMatches(m.sharded.FindAll(data)), nil
	}
	raw, err := m.sys.Scan(data)
	if err != nil {
		return nil, err
	}
	return convertMatches(raw), nil
}

// findAllFiltered runs the skip-scan front-end and verifies each
// candidate segment from the verifier's root state. Segments are
// disjoint and ordered and every match lies wholly inside one (the
// filter's containment guarantee), so concatenating the per-segment
// sorted matches reproduces FindAll's global (End, Pattern) order.
func (m *Matcher) findAllFiltered(data []byte, stride1 bool) ([]Match, error) {
	segs, skipped := m.filter.Segments(data)
	m.windowsSkipped.Add(uint64(skipped))
	out := make([]Match, 0)
	for _, sg := range segs {
		ms, err := m.scanSegment(data[sg.Start:sg.End], sg.Start, stride1)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// scanSegment scans one piece from the root state on the live verifier
// engine, returning matches sorted by (End, Pattern) with End offsets
// shifted by base — the verification unit of the filtered paths.
// stride1 pins the kernel to its 1-byte loops for this piece.
func (m *Matcher) scanSegment(piece []byte, base int, stride1 bool) ([]Match, error) {
	switch {
	case m.eng != nil:
		var raw []dfa.Match
		if stride1 {
			raw = m.eng.ScanChunkStride1(piece, base, 0)
		} else {
			raw = m.eng.ScanChunk(piece, base, 0)
		}
		dfa.SortMatches(raw)
		return convertMatches(raw), nil
	case m.comp != nil:
		raw := m.comp.ScanChunk(piece, base, 0)
		dfa.SortMatches(raw)
		return convertMatches(raw), nil
	case m.sharded != nil:
		var raw []dfa.Match
		for sh := 0; sh < m.sharded.Shards(); sh++ {
			raw = append(raw, m.sharded.ScanShardChunk(sh, piece, base, 0)...)
		}
		dfa.SortMatches(raw)
		return convertMatches(raw), nil
	default:
		raw, err := m.sys.Scan(piece)
		if err != nil {
			return nil, err
		}
		for i := range raw {
			raw[i].End += base
		}
		return convertMatches(raw), nil
	}
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
		return m.countUnfiltered(data)
	}
	segs, skipped := m.filter.Segments(data)
	m.windowsSkipped.Add(uint64(skipped))
	total := 0
	for _, sg := range segs {
		n, err := m.countUnfiltered(data[sg.Start:sg.End])
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func (m *Matcher) countUnfiltered(data []byte) (int, error) {
	if m.eng != nil {
		return m.eng.Count(data), nil
	}
	if m.comp != nil {
		return m.comp.Count(data), nil
	}
	if m.sharded != nil {
		return m.sharded.Count(data), nil
	}
	return m.sys.CountMatches(data)
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
type Stats struct {
	Patterns      int
	States        int // aggregate across series slots
	SeriesDepth   int
	Groups        int
	TilesRequired int
	STTBytes      int // aggregate encoded table size at width 32
	AlphabetUsed  int // distinct reduced symbol classes the dictionary uses
	MaxPatternLen int

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

// Stats reports the compiled matcher's shape.
func (m *Matcher) Stats() Stats {
	s := Stats{
		Patterns:      len(m.patterns),
		States:        m.sys.DictionaryStates(),
		SeriesDepth:   m.sys.Topology.SeriesDepth,
		Groups:        m.sys.Topology.Groups,
		TilesRequired: m.sys.Topology.TotalTiles(),
		AlphabetUsed:  m.sys.Red.Classes,
		MaxPatternLen: m.sys.MaxPatternLen,
		Regex:         m.regex,
	}
	m.sttOnce.Do(func() {
		for _, d := range m.sys.Slots {
			if t, err := stt.Encode(d, m.sys.Width, 0); err == nil {
				m.sttBytes += t.SizeBytes()
			}
		}
	})
	s.STTBytes = m.sttBytes
	s.DenseTableBudget = kernel.ResolveMaxTableBytes(m.opts.Engine.MaxTableBytes)
	s.MinPatternLen = m.minLen
	s.WindowsSkipped = m.windowsSkipped.Load()
	if m.filter != nil {
		s.FilterEnabled = true
		s.FilterWindow = m.filter.Window
	}
	switch {
	case m.eng != nil:
		s.Engine = "kernel"
		s.Stride = 1
		s.KernelTableBytes = m.eng.TableBytes()
		resident := s.KernelTableBytes
		if m.eng.Stride() == 2 {
			s.Engine = "stride2"
			s.Stride = 2
			s.PairTableBytes = m.eng.PairBytes()
			resident += s.PairTableBytes
		}
		s.TableFitsL1 = resident <= kernel.L1DataBudget
		s.TableFitsL2 = resident <= kernel.L2Budget
	case m.comp != nil:
		s.Engine = "compressed"
		s.Stride = 1
		s.CompressedTableBytes = m.comp.TableBytes()
		s.TableFitsL1 = s.CompressedTableBytes <= kernel.L1DataBudget
		s.TableFitsL2 = s.CompressedTableBytes <= kernel.L2Budget
	case m.sharded != nil:
		s.Engine = "sharded"
		s.Stride = 1
		s.KernelTableBytes = m.sharded.TableBytes()
		s.Shards = m.sharded.Shards()
		s.MaxShardTableBytes = m.sharded.MaxShardBytes()
		s.TableFitsL1 = s.MaxShardTableBytes <= kernel.L1DataBudget
		s.TableFitsL2 = s.MaxShardTableBytes <= kernel.L2Budget
	default:
		s.Engine = "stt"
	}
	return s
}

// FilterActive reports whether the skip-scan front-end is live — the
// cheap per-request form for serving paths.
func (m *Matcher) FilterActive() bool { return m.filter != nil }

// EngineName reports the live scan engine ("stride2", "kernel",
// "compressed", "sharded", or "stt") without computing full Stats —
// the cheap per-request form for serving paths.
func (m *Matcher) EngineName() string {
	switch {
	case m.eng != nil:
		if m.eng.Stride() == 2 {
			return "stride2"
		}
		return "kernel"
	case m.comp != nil:
		return "compressed"
	case m.sharded != nil:
		return "sharded"
	}
	return "stt"
}

// carryTables flattens the live kernel-family tier's tables (one per
// series slot, across shards when sharded) as carry-scanners, or nil
// on the stt path — the carry-state unit list for incremental scans.
// Dense and compressed tables share the CarryScanner contract, so the
// stream machinery is representation-agnostic.
func (m *Matcher) carryTables() []kernel.CarryScanner {
	switch {
	case m.eng != nil:
		out := make([]kernel.CarryScanner, len(m.eng.Tables))
		for i, t := range m.eng.Tables {
			out[i] = t
		}
		return out
	case m.comp != nil:
		out := make([]kernel.CarryScanner, len(m.comp.Tables))
		for i, t := range m.comp.Tables {
			out[i] = t
		}
		return out
	case m.sharded != nil:
		tables := m.sharded.AllTables()
		out := make([]kernel.CarryScanner, len(tables))
		for i, t := range tables {
			out[i] = t
		}
		return out
	}
	return nil
}

// System exposes the underlying composed system for advanced use.
func (m *Matcher) System() *compose.System { return m.sys }

// EstimateCell plans the matcher onto a blade and predicts filtering
// throughput for the given traffic volume.
func (m *Matcher) EstimateCell(blade cell.Blade, inputBytes int64) (cell.Estimate, error) {
	d, err := cell.Plan(m.sys, blade, m.opts.Version)
	if err != nil {
		return cell.Estimate{}, err
	}
	return d.Estimate(inputBytes), nil
}

// Table1 regenerates the paper's Table 1 on this matcher's largest
// series slot.
func (m *Matcher) Table1() ([]tile.Table1Row, error) {
	var biggest *dfa.DFA
	for _, d := range m.sys.Slots {
		if biggest == nil || d.NumStates() > biggest.NumStates() {
			biggest = d
		}
	}
	return tile.MeasureTable1(biggest, 16*1024, 1)
}

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
// sizes; matches carry global offsets. A Stream holds one cursor per
// series slot (or, with the skip-scan front-end live, the last
// MaxPatternLen-1 bytes), so memory is O(dictionary), not O(input).
type Stream struct {
	m      *Matcher
	states []int                 // per-slot DFA state (stt/dfa path)
	tables []kernel.CarryScanner // flattened kernel-family tables (kernel/compressed/sharded path)
	rows   []uint32              // per-table encoded carry row (kernel/compressed/sharded path)

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
	if tables := m.carryTables(); tables != nil {
		st.tables = tables
		st.rows = make([]uint32, len(tables))
		for i, t := range tables {
			st.rows[i] = t.StartRow()
		}
		return st
	}
	st.states = make([]int, len(m.sys.Slots))
	for i, d := range m.sys.Slots {
		st.states[i] = d.Start
	}
	return st
}

// writeFiltered is Write on the skip-scan path: filter the carried
// tail plus the new chunk, verify candidate segments from the root,
// and drop matches ending inside the tail (already reported).
func (s *Stream) writeFiltered(p []byte) (int, error) {
	s.buf = append(append(s.buf[:0], s.tail...), p...)
	text := s.buf
	segs, skipped := s.filt.Segments(text)
	s.m.windowsSkipped.Add(uint64(skipped))
	dedupe := len(s.tail)
	base := s.offset - dedupe
	for _, sg := range segs {
		ms, err := s.m.scanSegment(text[sg.Start:sg.End], sg.Start, false)
		if err != nil {
			return 0, err
		}
		for _, mt := range ms {
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
	return len(p), nil
}

// Write consumes the next chunk. It never fails on the unfiltered
// paths; the error satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.filt != nil {
		return s.writeFiltered(p)
	}
	if s.tables != nil {
		for i, t := range s.tables {
			s.rows[i] = t.ScanCarry(p, s.rows[i], func(pid int32, end int) {
				s.found = append(s.found, Match{Pattern: int(pid), End: s.offset + end})
			})
		}
		s.offset += len(p)
		return len(p), nil
	}
	reduced := s.m.sys.Red.Reduce(p)
	for i, d := range s.m.sys.Slots {
		state := s.states[i]
		for pos, c := range reduced {
			state = d.Step(state, c)
			for _, pid := range d.Out[state] {
				s.found = append(s.found, Match{
					Pattern: s.m.sys.SlotPatterns[i][pid],
					End:     s.offset + pos + 1,
				})
			}
		}
		s.states[i] = state
	}
	s.offset += len(p)
	return len(p), nil
}

// Matches returns the hits so far, in feed order per slot. Call after
// the final Write.
func (s *Stream) Matches() []Match { return s.found }

// BytesSeen reports the total volume consumed.
func (s *Stream) BytesSeen() int { return s.offset }
