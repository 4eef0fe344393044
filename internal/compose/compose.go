// Package compose implements Section 5 of the paper: combining DFA
// tiles "in series" and "in parallel" to scale dictionary size and
// throughput independently.
//
//   - Parallel (Figure 6a): identical tiles scan distinct input
//     portions (with a small overlap so boundary-straddling matches
//     are not lost); throughput multiplies by the group count.
//   - Series (Figure 6b): tiles with distinct STTs scan the same
//     input; dictionary capacity multiplies by the series depth.
//   - Mixed (Figure 7): groups of series tiles over split input,
//     multiplying both.
//
// The package also contains the dictionary partitioner that splits a
// pattern set into tile-sized Aho-Corasick automata under the
// Figure 3 state budgets. Those tiles are the Cell model: a 256 KB
// local store holds one 1520-state tile, so the paper chains tiles in
// series to serve a larger dictionary. A host core has no such wall.
// When Config.HostTableBytes admits it, a literal dictionary whose
// whole automaton fits the host kernel's dense-table budget composes
// as one slot and every input byte passes through one table, not one
// per tile. System.CellTiling and System.CellTileStates recover the
// Figure 3 tiling of such a system for the Cell model.
package compose

import (
	"errors"
	"fmt"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
	"cellmatch/internal/interleave"
	"cellmatch/internal/localstore"
)

// Topology describes a series/parallel tile arrangement.
type Topology struct {
	// Groups is the parallel width: how many input portions.
	Groups int
	// SeriesDepth is how many distinct-STT tiles scan each portion.
	SeriesDepth int
}

// Parallel returns a k-wide parallel topology (Figure 6a).
func Parallel(k int) Topology { return Topology{Groups: k, SeriesDepth: 1} }

// Series returns an m-deep series topology (Figure 6b).
func Series(m int) Topology { return Topology{Groups: 1, SeriesDepth: m} }

// Mixed returns the Figure 7 arrangement: g groups of m series tiles.
func Mixed(g, m int) Topology { return Topology{Groups: g, SeriesDepth: m} }

// TotalTiles is the SPE count the topology occupies.
func (t Topology) TotalTiles() int { return t.Groups * t.SeriesDepth }

// Validate checks the topology is non-degenerate and fits a machine
// with the given number of processing elements (0 = unconstrained).
func (t Topology) Validate(spes int) error {
	if t.Groups < 1 || t.SeriesDepth < 1 {
		return fmt.Errorf("compose: degenerate topology %+v", t)
	}
	if spes > 0 && t.TotalTiles() > spes {
		return fmt.Errorf("compose: topology needs %d tiles, only %d SPEs", t.TotalTiles(), spes)
	}
	return nil
}

// ThroughputGbps aggregates per-tile throughput over the topology:
// parallel groups multiply throughput; series tiles scan the same
// data concurrently at the group's rate (Figure 7: 2 groups x 5.11 =
// 10.22 Gbps regardless of depth).
func (t Topology) ThroughputGbps(perTile float64) float64 {
	return float64(t.Groups) * perTile
}

// Partition splits a dictionary into groups whose Aho-Corasick
// automata each fit maxStates, preserving pattern order within
// groups. It returns the per-group global pattern ids.
func Partition(patterns [][]byte, red *alphabet.Reduction, maxStates int) ([][]int, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("compose: empty dictionary")
	}
	if red == nil {
		red = alphabet.Identity()
	}
	if maxStates < 2 {
		return nil, fmt.Errorf("compose: maxStates %d too small", maxStates)
	}
	groups, _, err := partitionFrom(patterns, red, maxStates, 0)
	return groups, err
}

// partitionFrom runs the greedy group packer over patterns[startID:]
// with a fresh trie, emitting groups of global ids (offset by startID)
// and each group's automaton state count. It is the shared tail of
// Partition, of CellTileStates, and of the delta path's append-only
// fast partitioning, which reuses the previous build's group
// boundaries for the untouched prefix and resumes the greedy walk at
// the start of the last previous group.
func partitionFrom(patterns [][]byte, red *alphabet.Reduction, maxStates, startID int) ([][]int, []int, error) {
	var groups [][]int
	var states []int
	var cur []int
	trie := newTrieCounter(red)
	for i, p := range patterns[startID:] {
		id := startID + i
		if err := checkPattern(id, p, maxStates); err != nil {
			return nil, nil, err
		}
		if trie.nodes+trie.wouldAdd(p) > maxStates && len(cur) > 0 {
			groups, states = append(groups, cur), append(states, trie.nodes)
			cur = nil
			trie.reset()
		}
		trie.insert(p)
		cur = append(cur, id)
	}
	if len(cur) > 0 {
		groups, states = append(groups, cur), append(states, trie.nodes)
	}
	return groups, states, nil
}

// checkPattern rejects what no Figure 3 tile can hold: an empty
// pattern, or one longer than a tile's state budget.
func checkPattern(id int, p []byte, maxStates int) error {
	if len(p) == 0 {
		return fmt.Errorf("compose: pattern %d empty", id)
	}
	if len(p)+1 > maxStates {
		return fmt.Errorf(
			"compose: pattern %d needs %d states, budget is %d", id, len(p)+1, maxStates)
	}
	return nil
}

// trieCounter incrementally counts Aho-Corasick goto-trie states over
// raw pattern bytes: a dense child table (one row per state, one entry
// per reduced symbol, 0 = no child since the root is never a child).
type trieCounter struct {
	red   *alphabet.Reduction
	next  []int32
	nodes int
}

func newTrieCounter(red *alphabet.Reduction) *trieCounter {
	return &trieCounter{red: red, next: make([]int32, red.Classes), nodes: 1}
}

// reset empties the trie to its root, keeping the table's storage.
func (t *trieCounter) reset() {
	t.next = t.next[:t.red.Classes]
	clear(t.next)
	t.nodes = 1
}

// wouldAdd is the number of states inserting p would create.
func (t *trieCounter) wouldAdd(p []byte) int {
	syms := t.red.Classes
	cur := int32(0)
	for i, raw := range p {
		cur = t.next[int(cur)*syms+int(t.red.Map[raw])]
		if cur == 0 {
			return len(p) - i
		}
	}
	return 0
}

func (t *trieCounter) insert(p []byte) {
	syms := t.red.Classes
	cur := 0
	for _, raw := range p {
		e := cur*syms + int(t.red.Map[raw])
		if t.next[e] == 0 {
			t.next[e] = int32(t.nodes)
			t.nodes++
			t.next = append(t.next, make([]int32, syms)...)
		}
		cur = int(t.next[e])
	}
}

// System is a composed matcher: a topology plus the per-series-slot
// automata, ready to scan raw input.
type System struct {
	Topology Topology
	Red      *alphabet.Reduction
	// Width is the STT row width in symbols: 32 in the paper's
	// case-folded regime, wider when the dictionary distinguishes
	// more byte classes (the tile state budget shrinks accordingly).
	Width int
	// Slots[i] is the automaton of series slot i (shared by every
	// parallel group).
	Slots []*dfa.DFA
	// SlotPatterns[i] maps slot-local pattern ids to global ids.
	SlotPatterns [][]int
	// MaxPatternLen drives the split overlap.
	MaxPatternLen int

	// slotFP caches per-slot content fingerprints (see delta.go) so
	// repeated delta recompiles against this system hash its dictionary
	// once, not once per reload.
	slotFP [][fpSize]byte
	// overCap is the one-slot state cap (Config.HostTableBytes) this
	// dictionary's trie was found to pass, 0 when none was tried. An
	// append-only delta cannot shrink the trie, so it skips the one-slot
	// attempt when its cap is the same.
	overCap int
}

// Config for building a system.
type Config struct {
	// MaxStatesPerTile is the Figure 3 budget (default 1520).
	MaxStatesPerTile int
	// Groups is the parallel width (default 1).
	Groups int
	// MaxSPEs bounds the total tiles (0 = unconstrained).
	MaxSPEs int
	// CaseFold uses the paper's case-insensitive reduction.
	CaseFold bool
	// Workers bounds the compile-time fan-out (fanout semantics:
	// 0 = one per core, 1 = sequential): slot automata build
	// concurrently, and the result is bit-identical at any worker
	// count.
	Workers int
	// HostTableBytes, when positive and MaxStatesPerTile is zero, is
	// the byte budget of one host dense table. A literal dictionary
	// whose whole automaton has at most HostTableBytes /
	// Red.KernelRowBytes() states — the host kernel's own row size —
	// composes as one slot. The one-slot build stops the moment its
	// trie passes that cap, and the dictionary takes the Figure 3
	// tiling instead. Zero keeps the tiling always (regex systems
	// ignore the field).
	HostTableBytes int
}

// hostStates is the one-slot state cap cfg admits under red (0: none).
func (cfg Config) hostStates(red *alphabet.Reduction) int {
	if cfg.HostTableBytes <= 0 || cfg.MaxStatesPerTile != 0 {
		return 0
	}
	return cfg.HostTableBytes / red.KernelRowBytes()
}

// tileGeometry resolves the row width and per-tile state budget for a
// reduction — the arithmetic NewSystem, NewRegexSystem, and the delta
// path must share so a delta recompile reproduces the cold partition.
func tileGeometry(red *alphabet.Reduction, maxStatesPerTile int) (width, maxStates int, err error) {
	width = 32
	for width < red.Classes {
		width *= 2
	}
	maxStates = maxStatesPerTile
	if maxStates == 0 {
		plan, err := localstore.PlanTile(16*1024, uint32(width)*4)
		if err != nil {
			return 0, 0, err
		}
		maxStates = plan.MaxStates
	}
	return width, maxStates, nil
}

// NewSystem composes a literal dictionary: one slot when
// Config.HostTableBytes admits its whole automaton, otherwise the
// Figure 3 tiling — partitioned into tile-sized slots, each tile an
// Aho-Corasick automaton — under the erected topology.
func NewSystem(patterns [][]byte, cfg Config) (*System, error) {
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	red, err := alphabet.ForDictionary(patterns, cfg.CaseFold)
	if err != nil {
		return nil, err
	}
	return newSystem(patterns, red, cfg)
}

// newSystem is NewSystem under a resolved reduction.
func newSystem(patterns [][]byte, red *alphabet.Reduction, cfg Config) (*System, error) {
	width, maxStates, err := tileGeometry(red, cfg.MaxStatesPerTile)
	if err != nil {
		return nil, err
	}
	hostCap := cfg.hostStates(red)
	if hostCap > 0 {
		s, err := newOneSlot(patterns, red, width, maxStates, hostCap, cfg)
		if !errors.Is(err, dfa.ErrStateCap) {
			return s, err
		}
	}
	s, err := newTiled(patterns, red, width, maxStates, cfg)
	if err != nil {
		return nil, err
	}
	s.overCap = hostCap
	return s, nil
}

// newOneSlot composes the whole dictionary as one slot of at most
// hostCap states; past the cap the error wraps dfa.ErrStateCap. Every
// pattern must still fit a tile of maxStates, so the dictionaries a
// one-slot system accepts are exactly those the tiling accepts and
// its Cell model (CellTiling) always exists.
func newOneSlot(patterns [][]byte, red *alphabet.Reduction, width, maxStates, hostCap int, cfg Config) (*System, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("compose: empty dictionary")
	}
	for id, p := range patterns {
		if err := checkPattern(id, p, maxStates); err != nil {
			return nil, err
		}
	}
	topo := Mixed(cfg.Groups, 1)
	if err := topo.Validate(cfg.MaxSPEs); err != nil {
		return nil, err
	}
	d, err := dfa.FromPatternsMax(patterns, red, hostCap)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(patterns))
	for i := range ids {
		ids[i] = i
	}
	return &System{
		Topology: topo, Red: red, Width: width,
		Slots: []*dfa.DFA{d}, SlotPatterns: [][]int{ids}, MaxPatternLen: d.MaxPatternLen,
	}, nil
}

// newTiled partitions the dictionary into slots of at most maxStates
// states and builds every slot.
func newTiled(patterns [][]byte, red *alphabet.Reduction, width, maxStates int, cfg Config) (*System, error) {
	groups, err := Partition(patterns, red, maxStates)
	if err != nil {
		return nil, err
	}
	topo := Mixed(cfg.Groups, len(groups))
	if err := topo.Validate(cfg.MaxSPEs); err != nil {
		return nil, err
	}
	s := &System{Topology: topo, Red: red, Width: width, SlotPatterns: groups}
	if err := s.buildSlots(patterns, groups, nil, maxStates, cfg.Workers); err != nil {
		return nil, err
	}
	return s, nil
}

// oversized reports whether s is one slot larger than maxStates: a
// one-slot host system when maxStates is the tile budget.
func (s *System) oversized(maxStates int) bool {
	return len(s.Slots) == 1 && s.Slots[0].NumStates() > maxStates
}

// hostSlot reports whether s, composed under cfg, is a one-slot host
// system larger than a Figure 3 tile: a composition the paper's Cell
// could not load, whose Cell model is CellTiling. Systems under a
// pinned MaxStatesPerTile are their own tiling.
func (s *System) hostSlot(cfg Config) bool {
	if cfg.MaxStatesPerTile != 0 {
		return false
	}
	_, tile, err := tileGeometry(s.Red, 0)
	return err == nil && s.oversized(tile)
}

// CellTiling returns the Figure 3 tiling of the literal dictionary s
// was composed from (patterns, under cfg): s itself unless s is a
// one-slot host system (hostSlot), whose tiling is composed afresh.
// It is the system the Cell model plans on.
func (s *System) CellTiling(patterns [][]byte, cfg Config) (*System, error) {
	if !s.hostSlot(cfg) {
		return s, nil
	}
	cfg.HostTableBytes = 0
	cfg.Groups = s.Topology.Groups
	return newSystem(patterns, s.Red, cfg)
}

// CellTileStates is the state count of each slot of CellTiling,
// counted on the goto trie without building an automaton when s is a
// one-slot host system.
func (s *System) CellTileStates(patterns [][]byte, cfg Config) ([]int, error) {
	if !s.hostSlot(cfg) {
		states := make([]int, len(s.Slots))
		for i, d := range s.Slots {
			states[i] = d.NumStates()
		}
		return states, nil
	}
	_, tile, err := tileGeometry(s.Red, 0)
	if err != nil {
		return nil, err
	}
	_, states, err := partitionFrom(patterns, s.Red, tile, 0)
	return states, err
}

// buildSlots compiles each group's automaton, fanning the independent
// slot builds across workers (large dictionaries split into hundreds of
// tile slots, so per-slot fan-out is the dominant compile parallelism).
// reuse[i], when non-nil, supplies an already-built automaton for slot
// i (the delta path's fingerprint hits); budget checks are skipped for
// reused slots — they passed when first built. Slots land at their
// index, so the slot order (and every downstream table) is identical to
// the sequential build's.
func (s *System) buildSlots(patterns [][]byte, groups [][]int, reuse []*dfa.DFA, maxStates, workers int) error {
	s.Slots = make([]*dfa.DFA, len(groups))
	err := fanout.ForEachErr(len(groups), workers, func(gi int) error {
		if reuse != nil && reuse[gi] != nil {
			s.Slots[gi] = reuse[gi]
			return nil
		}
		ids := groups[gi]
		sub := make([][]byte, len(ids))
		for i, id := range ids {
			sub[i] = patterns[id]
		}
		d, err := dfa.FromPatterns(sub, s.Red)
		if err != nil {
			return err
		}
		if d.NumStates() > maxStates {
			return fmt.Errorf("compose: partition produced %d states, budget %d",
				d.NumStates(), maxStates)
		}
		s.Slots[gi] = d
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range s.Slots {
		if d.MaxPatternLen > s.MaxPatternLen {
			s.MaxPatternLen = d.MaxPatternLen
		}
	}
	return nil
}

// NewRegexSystem partitions a dictionary of bounded regular
// expressions (see dfa.CompileRegexSearch for the dialect and the
// bounded/non-nullable restrictions) into tile-sized unanchored search
// DFAs and erects the topology. The resulting System scans exactly
// like a literal one — Out sets carry expression ids, matches are
// reported per (expression, end offset) — so every downstream engine
// works unchanged. The reduction is derived from the expressions' own
// leaf sets (dfa.RegexReduction), so reduced matching is exact.
//
// Partitioning is by trial compilation: expressions accumulate into a
// slot until its search DFA would exceed the tile budget, then a new
// slot starts. Subset construction can entangle expressions (unlike
// literal tries, slot states are not additive), so the budget is
// enforced on the actual compiled automaton rather than predicted.
func NewRegexSystem(exprs []string, cfg Config) (*System, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("compose: empty regex dictionary")
	}
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	red, err := dfa.RegexReduction(exprs, cfg.CaseFold)
	if err != nil {
		return nil, err
	}
	// Trial compilation is inherently sequential (each trial depends on
	// the accumulated slot), so regex systems ignore cfg.Workers; delta
	// recompiles of regex dictionaries fall back to a full rebuild for
	// the same reason.
	width, maxStates, err := tileGeometry(red, cfg.MaxStatesPerTile)
	if err != nil {
		return nil, err
	}
	cfg.MaxStatesPerTile = maxStates
	s := &System{Red: red, Width: width}
	var cur []int
	var curDFA *dfa.DFA
	compile := func(ids []int) (*dfa.DFA, error) {
		sub := make([]string, len(ids))
		for i, id := range ids {
			sub[i] = exprs[id]
		}
		return dfa.CompileRegexSearch(sub, cfg.CaseFold, red)
	}
	for id := range exprs {
		d, err := compile(append(cur[:len(cur):len(cur)], id))
		if err != nil {
			return nil, err
		}
		if d.NumStates() > cfg.MaxStatesPerTile && len(cur) > 0 {
			s.Slots = append(s.Slots, curDFA)
			s.SlotPatterns = append(s.SlotPatterns, cur)
			cur = nil
			if d, err = compile([]int{id}); err != nil {
				return nil, err
			}
		}
		if d.NumStates() > cfg.MaxStatesPerTile {
			return nil, fmt.Errorf("compose: expression %d alone needs %d states, budget %d",
				id, d.NumStates(), cfg.MaxStatesPerTile)
		}
		cur = append(cur, id)
		curDFA = d
	}
	s.Slots = append(s.Slots, curDFA)
	s.SlotPatterns = append(s.SlotPatterns, cur)
	topo := Mixed(cfg.Groups, len(s.Slots))
	if err := topo.Validate(cfg.MaxSPEs); err != nil {
		return nil, err
	}
	s.Topology = topo
	for _, d := range s.Slots {
		if d.MaxPatternLen > s.MaxPatternLen {
			s.MaxPatternLen = d.MaxPatternLen
		}
	}
	return s, nil
}

// Scan matches raw input against the whole dictionary, splitting it
// across parallel groups with pattern-length overlap and de-duplicating
// boundary matches. Matches are reported with global pattern ids and
// global end offsets, sorted by (End, Pattern).
func (s *System) Scan(input []byte) ([]dfa.Match, error) {
	reduced := s.Red.Reduce(input)
	overlap := 0
	if s.MaxPatternLen > 0 {
		overlap = s.MaxPatternLen - 1
	}
	chunks, err := interleave.SplitWithOverlap(len(reduced), s.Topology.Groups, overlap)
	if err != nil {
		return nil, err
	}
	var out []dfa.Match
	for _, c := range chunks {
		if c.Len() == 0 {
			continue
		}
		piece := reduced[c.Start:c.End]
		for slot, d := range s.Slots {
			for _, m := range d.FindAll(piece) {
				if m.End <= c.DedupeEnd() {
					continue // duplicate of the previous chunk
				}
				out = append(out, dfa.Match{
					Pattern: int32(s.SlotPatterns[slot][m.Pattern]),
					End:     c.GlobalEnd(m.End),
				})
			}
		}
	}
	dfa.SortMatches(out)
	return out, nil
}

// CountMatches scans and returns only the match count.
func (s *System) CountMatches(input []byte) (int, error) {
	ms, err := s.Scan(input)
	if err != nil {
		return 0, err
	}
	return len(ms), nil
}
