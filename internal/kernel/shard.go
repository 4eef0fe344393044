// Sharded multi-kernel engine: the paper's Section 5 answer to
// dictionaries that outgrow one SPE's 256 KB local store, translated
// to the host. Where a single dense Engine must fit MaxTableBytes (the
// host analog of the local-store STT budget), a Sharded engine
// partitions the pattern set into K sub-dictionaries whose compiled
// kernels each fit that budget — the Figure 6b "series" composition,
// one shard per SPE, every shard scanning the same input stream — and
// merges the per-shard match streams back into the exact (End,
// Pattern) order the unsharded scan would have produced.
//
// The planner is a greedy bin-packer over a prefix-sorted pattern
// order: patterns are sorted by their reduced byte image so entries
// sharing a prefix land in the same shard and share trie states
// instead of duplicating them across shards, and each shard is grown
// until its estimated dense-table footprint would exceed the per-shard
// budget. The estimate mirrors what the shard will actually compile
// to: incremental Aho-Corasick trie node count × the shard's own row
// width (the power of two covering the distinct symbol classes of
// that shard's patterns, plus the "other" class — not the full
// dictionary's width, which can be 8x wider) × 4 bytes. Estimation
// errs low only through cross-slot prefix loss inside a shard, so the
// packer targets a 7/8 fill and the per-shard Compile still enforces
// the true budget.
//
// Scanning offers the two schedules the paper's composition section
// describes:
//
//   - FindAll: sequential, chunk-interleaved. The input is walked in
//     ShardChunkBytes pieces and every shard's tables scan each piece
//     (via ScanCarry, exact state carry — no speculation, no overlap)
//     before the scan advances, so the input chunk stays cache-resident
//     while the shard tables cycle through it — the single-Cell
//     time-multiplexed schedule.
//   - ScanUnit: the unit of the pool-fanned schedule. The
//     parallel engine builds one work item per (shard, input chunk), so
//     each worker holds one shard's tables hot while scanning — the
//     multi-SPE schedule, one shard set per worker.
package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
)

const (
	// DefaultMaxShards caps the shard count when ShardConfig leaves it
	// zero: 8, the paper's SPE count per Cell.
	DefaultMaxShards = 8

	// MaxShardsLimit is the hard ceiling on the shard count: past this
	// the per-shard scan passes dominate and the stt fallback is the
	// honest answer.
	MaxShardsLimit = 64

	// ShardChunkBytes is the input chunk of the sequential
	// chunk-interleaved scan: small enough to stay L2-resident while
	// every shard's tables cycle over it.
	ShardChunkBytes = 256 << 10

	// packTarget/packDiv make the planner fill shards to 7/8 of the
	// budget: estimation counts whole-shard trie nodes, but a shard that
	// compose splits across series slots loses a little prefix sharing,
	// and the per-shard Compile enforces the full budget strictly.
	packTarget = 7
	packDiv    = 8
)

// ShardPlan is the planner's output: Shards[i] lists the global
// pattern ids assigned to shard i, EstBytes[i] its estimated dense
// footprint, and Classes[i] the distinct reduced symbol classes its
// patterns use (the row-width driver CompileSharded sizes slots with).
type ShardPlan struct {
	Shards   [][]int
	EstBytes []int
	Classes  []int
}

// PlanShards partitions a dictionary into shards whose estimated dense
// tables each fit budget bytes, using at most maxShards shards
// (<=0 means DefaultMaxShards). Patterns are packed in reduced
// lexicographic order so shared prefixes stay within one shard. Errors
// that mean "this dictionary cannot be sharded within the constraints"
// (a single pattern outgrowing the budget, or the plan needing more
// than maxShards shards) wrap ErrBudget; callers fall back to the
// stt/dfa path exactly as they do for the unsharded kernel.
func PlanShards(patterns [][]byte, red *alphabet.Reduction, budget, maxShards int) (*ShardPlan, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("kernel: empty dictionary")
	}
	if red == nil {
		red = alphabet.Identity()
	}
	if maxShards <= 0 {
		maxShards = DefaultMaxShards
	}
	if maxShards > MaxShardsLimit {
		maxShards = MaxShardsLimit
	}
	target := budget * packTarget / packDiv
	if target < 2*2*4 {
		// Not even a two-state automaton at the minimum row width fits
		// the packing target.
		return nil, fmt.Errorf("%w: shard budget %d below one row pair", ErrBudget, budget)
	}

	// Reduced images, sorted so shared prefixes are adjacent (and
	// duplicates collapse onto the same trie path). The per-pattern
	// budget check prices the pattern at its own row width, the widest
	// a single-pattern shard can cost.
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	buf := make([]byte, total) // every reduced image, back to back
	reduced := make([][]byte, len(patterns))
	order := make([]int, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("kernel: pattern %d is empty", i)
		}
		reduced[i] = buf[:len(p):len(p)]
		buf = buf[len(p):]
		red.Apply(reduced[i], p)
		own := (len(p) + 1) * shardEntryBytes(classCount(reduced[i]))
		if own > budget {
			return nil, fmt.Errorf("%w: pattern %d alone needs %d bytes, shard budget %d",
				ErrBudget, i, own, budget)
		}
		order[i] = i
	}
	// Ties keep id order: the stable order, at pdqsort's speed.
	slices.SortFunc(order, func(a, b int) int {
		if c := bytes.Compare(reduced[a], reduced[b]); c != 0 {
			return c
		}
		return a - b
	})

	plan := &ShardPlan{}
	trie := newShardTrie()
	var seen [256]bool
	distinct := 0
	var cur []int
	reset := func() {
		trie = newShardTrie()
		seen = [256]bool{}
		distinct = 0
		cur = nil
	}
	flush := func() {
		if len(cur) > 0 {
			plan.Shards = append(plan.Shards, cur)
			plan.EstBytes = append(plan.EstBytes, trie.nodes*shardEntryBytes(distinct))
			plan.Classes = append(plan.Classes, distinct)
			reset()
		}
	}
	take := func(id int) {
		trie.insert(reduced[id])
		for _, c := range reduced[id] {
			if !seen[c] {
				seen[c] = true
				distinct++
			}
		}
		cur = append(cur, id)
	}
	// wouldCost prices the shard as if pattern id joined it: the new
	// trie node count at the row width its new symbol diversity needs.
	wouldCost := func(id int) int {
		added := trie.wouldAdd(reduced[id])
		grown := distinct
		var fresh [256]bool
		for _, c := range reduced[id] {
			if !seen[c] && !fresh[c] {
				fresh[c] = true
				grown++
			}
		}
		return (trie.nodes + added) * shardEntryBytes(grown)
	}
	for _, id := range order {
		// Early exit: once the plan outgrows maxShards the outcome is
		// fixed (shard counts only grow), so stop walking — on a
		// million-pattern stt-bound dictionary this turns the doomed
		// sharding attempt from a full trie pass into a prefix of one.
		if len(plan.Shards) > maxShards {
			return nil, fmt.Errorf("%w: dictionary needs more than %d shards, max %d",
				ErrBudget, maxShards, maxShards)
		}
		cost := wouldCost(id)
		if cost > target && len(cur) > 0 {
			flush()
			cost = wouldCost(id)
		}
		if cost > target {
			// A lone pattern over the packing target but under the raw
			// budget: give it its own shard (Compile still checks it).
			take(id)
			flush()
			continue
		}
		take(id)
	}
	flush()
	if len(plan.Shards) > maxShards {
		return nil, fmt.Errorf("%w: dictionary needs %d shards, max %d",
			ErrBudget, len(plan.Shards), maxShards)
	}
	return plan, nil
}

// shardEntryBytes is the per-trie-node dense cost for a shard whose
// patterns use `distinct` symbol classes: the compiled row width is
// the power of two covering those classes plus the "other" class
// (class 0), at 4 bytes per entry — the same arithmetic compileTable
// applies to the shard's own reduction.
func shardEntryBytes(distinct int) int {
	return alphabet.RowWidth(distinct+1) * 4
}

// classCount counts distinct reduced symbol classes in one image.
func classCount(reduced []byte) int {
	var seen [256]bool
	n := 0
	for _, c := range reduced {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

// shardTrie counts the Aho-Corasick goto-trie nodes (the automaton
// state count) of a shard for the packer's size estimate. Patterns
// arrive in lexicographic order, and a pattern shares with all earlier
// ones exactly the prefix it shares with its predecessor, so each adds
// its length minus that common prefix — no trie is built.
type shardTrie struct {
	last  []byte
	nodes int
}

func newShardTrie() *shardTrie { return &shardTrie{nodes: 1} }

// wouldAdd is the node count inserting p (>= every pattern so far)
// would add.
func (t *shardTrie) wouldAdd(p []byte) int {
	n := min(len(p), len(t.last))
	i := 0
	for i < n && p[i] == t.last[i] {
		i++
	}
	return len(p) - i
}

func (t *shardTrie) insert(p []byte) {
	t.nodes += t.wouldAdd(p)
	t.last = p
}

// ShardConfig tunes CompileSharded.
type ShardConfig struct {
	// CaseFold selects the paper's case-insensitive reduction, matching
	// the owning matcher's compile options.
	CaseFold bool
	// MaxTableBytes is the per-shard dense-table budget. <=0 means
	// DefaultMaxTableBytes.
	MaxTableBytes int
	// MaxShards caps the shard count. <=0 means DefaultMaxShards.
	MaxShards int
	// Workers bounds the compile-time fan-out (fanout semantics:
	// 0 = one per core, 1 = sequential): shards compose and compile
	// concurrently, each internally parallel when shards are fewer than
	// cores. Output is byte-identical at any worker count.
	Workers int
	// InterleaveK is the shards' Options.InterleaveK: 1 pins their
	// chunk scans (ScanUnit) to the serial loop, any other value
	// applies the chooseK lane rule.
	InterleaveK int
}

// Sharded is a multi-kernel engine: one dense Engine per dictionary
// shard, all scanning the same input, match streams merged into the
// unsharded (End, Pattern) order. Pattern ids inside every shard's
// tables are global dictionary ids, so merging is concatenate + sort.
type Sharded struct {
	// Engines holds one compiled kernel per shard.
	Engines []*Engine
	// Plan records each shard's global pattern ids (diagnostics, and
	// the delta path's reuse key source). Nil on engines loaded from a
	// serialized image — those support no delta reuse.
	Plan [][]int

	// shardFP caches per-shard reuse fingerprints (see sharddelta.go).
	shardFP [][fpSize]byte
}

// CompileSharded plans and compiles a sharded engine for a dictionary
// whose single dense kernel exceeds the table budget. Each shard is
// composed into its own system (its own alphabet reduction and slot
// split, sized so a shard is normally a single slot) and compiled
// against the per-shard budget. Errors wrapping ErrBudget mean the
// dictionary cannot be sharded within the constraints and the caller
// should fall back to the stt/dfa path.
func CompileSharded(patterns [][]byte, cfg ShardConfig) (*Sharded, error) {
	return CompileShardedReusing(patterns, cfg, nil)
}

// CompileShardedReusing is CompileSharded with per-shard engine reuse
// for the delta path: prebuilt maps a shard's reuse fingerprint (see
// shardFingerprint) to an engine already compiled for identical shard
// content, identical global ids, and identical config. Matching shards
// adopt the donor engine untouched; the rest compile cold, fanned
// across cfg.Workers. The result is byte-identical to a cold
// CompileSharded of the same dictionary.
func CompileShardedReusing(patterns [][]byte, cfg ShardConfig, prebuilt map[[fpSize]byte]*Engine) (*Sharded, error) {
	budget := ResolveMaxTableBytes(cfg.MaxTableBytes)
	red, err := alphabet.ForDictionary(patterns, cfg.CaseFold)
	if err != nil {
		return nil, err
	}
	plan, err := PlanShards(patterns, red, budget, cfg.MaxShards)
	if err != nil {
		return nil, err
	}
	sh := &Sharded{
		Plan:    plan.Shards,
		Engines: make([]*Engine, len(plan.Shards)),
		shardFP: make([][fpSize]byte, len(plan.Shards)),
	}
	inner := 1
	if w := fanout.Workers(cfg.Workers); len(plan.Shards) < w {
		inner = (w + len(plan.Shards) - 1) / len(plan.Shards)
	}
	err = fanout.ForEachErr(len(plan.Shards), cfg.Workers, func(si int) error {
		ids := plan.Shards[si]
		sh.shardFP[si] = shardFingerprint(patterns, ids, cfg.CaseFold, budget)
		if prebuilt != nil {
			if donor, ok := prebuilt[sh.shardFP[si]]; ok {
				sh.Engines[si] = donor
				return nil
			}
		}
		sub := make([][]byte, len(ids))
		for i, id := range ids {
			sub[i] = patterns[id]
		}
		// One slot should hold the whole shard: derive the state budget
		// from the byte budget at this shard's own row width (not the
		// paper's 16 KB-tile default, and not the full dictionary's
		// width), so a shard costs one scan pass, not several.
		maxStates := budget / shardEntryBytes(plan.Classes[si])
		sys, err := compose.NewSystem(sub, compose.Config{
			MaxStatesPerTile: maxStates,
			CaseFold:         cfg.CaseFold,
			Workers:          inner,
		})
		if err != nil {
			// A shard that cannot compose within its state budget is a
			// planning miss, not a caller defect (the full dictionary
			// composed fine): degrade to the stt fallback.
			return fmt.Errorf("%w: shard %d composition: %v", ErrBudget, si, err)
		}
		// Rewrite the shard-local pattern ids to global dictionary ids
		// before the tables bake them in, so every shard's match stream
		// already speaks global ids and the merge is a plain sort.
		for slot, local := range sys.SlotPatterns {
			global := make([]int, len(local))
			for j, l := range local {
				global[j] = ids[l]
			}
			sys.SlotPatterns[slot] = global
		}
		// Shards pin stride 1: the sharded tier sits BELOW the stride-2
		// rung on the selection ladder, and per-shard pair tables would
		// burn the very budget that forced sharding in the first place.
		eng, err := Compile(sys, Options{MaxTableBytes: budget, Stride: 1, Workers: inner, InterleaveK: cfg.InterleaveK})
		if err != nil {
			return fmt.Errorf("kernel: shard %d: %w", si, err)
		}
		sh.Engines[si] = eng
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sh, nil
}

// ShardFingerprints exposes the per-shard reuse keys of a compiled
// sharded engine built from the given global pattern list — the donor
// map source for CompileShardedReusing. Engines loaded from a
// serialized image have no plan and return nil (no reuse).
func (s *Sharded) ShardFingerprints(patterns [][]byte, caseFold bool, budget, workers int) map[[fpSize]byte]*Engine {
	if s.Plan == nil {
		return nil
	}
	budget = ResolveMaxTableBytes(budget)
	if s.shardFP == nil {
		s.shardFP = make([][fpSize]byte, len(s.Plan))
		fanout.ForEach(len(s.Plan), workers, func(si int) {
			s.shardFP[si] = shardFingerprint(patterns, s.Plan[si], caseFold, budget)
		})
	}
	out := make(map[[fpSize]byte]*Engine, len(s.Engines))
	for si, e := range s.Engines {
		out[s.shardFP[si]] = e
	}
	return out
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.Engines) }

// TableBytes is the aggregate dense-table footprint across shards.
func (s *Sharded) TableBytes() int {
	total := 0
	for _, e := range s.Engines {
		total += e.TableBytes()
	}
	return total
}

// MaxShardBytes is the largest single shard's footprint — the cache
// residency unit, since only one shard's tables are hot at a time.
func (s *Sharded) MaxShardBytes() int {
	maxB := 0
	for _, e := range s.Engines {
		if b := e.TableBytes(); b > maxB {
			maxB = b
		}
	}
	return maxB
}

// MaxPatternLen is the longest pattern across shards: the overlap
// bound for speculative chunk scans.
func (s *Sharded) MaxPatternLen() int {
	maxL := 0
	for _, e := range s.Engines {
		if e.MaxPatternLen > maxL {
			maxL = e.MaxPatternLen
		}
	}
	return maxL
}

// AllTables flattens every shard's tables, in shard order — the
// carry-state unit list for incremental (Stream) scans.
func (s *Sharded) AllTables() []*Table {
	var out []*Table
	for _, e := range s.Engines {
		out = append(out, e.Tables...)
	}
	return out
}

// FindAll scans data against every shard and returns the merged match
// stream, sorted by (End, Pattern) — byte-identical to the unsharded
// scan. The schedule is sequential chunk-interleaved: each
// ShardChunkBytes piece of input is scanned by every shard (with exact
// per-table state carry, so no overlap or dedupe is needed) before the
// scan advances, keeping the input piece cache-resident while the
// shard tables cycle.
func (s *Sharded) FindAll(data []byte) []dfa.Match {
	var out []dfa.Match
	tables := s.AllTables()
	rows := make([]uint32, len(tables))
	for i, t := range tables {
		rows[i] = t.StartRow()
	}
	for base := 0; base < len(data); base += ShardChunkBytes {
		end := min(base+ShardChunkBytes, len(data))
		piece := data[base:end]
		for i, t := range tables {
			off := base
			rows[i] = t.ScanCarry(piece, rows[i], func(pid int32, pend int) {
				out = append(out, dfa.Match{Pattern: pid, End: off + pend})
			})
		}
	}
	dfa.SortMatches(out)
	return out
}

// Count returns the total occurrence count across shards without
// materializing the match list, on the same chunk-interleaved
// cache-resident schedule as FindAll (one pass over the input, not
// one per shard).
func (s *Sharded) Count(data []byte) int {
	tables := s.AllTables()
	rows := make([]uint32, len(tables))
	for i, t := range tables {
		rows[i] = t.StartRow()
	}
	count := 0
	bump := func(int32, int) { count++ }
	for base := 0; base < len(data); base += ShardChunkBytes {
		end := min(base+ShardChunkBytes, len(data))
		piece := data[base:end]
		for i, t := range tables {
			rows[i] = t.ScanCarry(piece, rows[i], bump)
		}
	}
	return count
}

// ScanUnit scans one piece against a single shard — the
// (shard × chunk) work item of the pool-fanned schedule, where each
// worker keeps one shard's tables hot.
func (s *Sharded) ScanUnit(shard int, piece []byte, base, dedupe int) []dfa.Match {
	return s.Engines[shard].ScanChunk(piece, base, dedupe)
}

var _ Verifier = (*Sharded)(nil)

// Name reports the rung.
func (s *Sharded) Name() string { return "sharded" }

// Stride is 1: shards pin the 1-byte kernel.
func (s *Sharded) Stride() int { return 1 }

// Units is the shard count: each chunk fans into one work item per
// shard.
func (s *Sharded) Units() int { return s.Shards() }

// CarryTables flattens every shard's tables, in shard order.
func (s *Sharded) CarryTables() []CarryScanner { return carryScanners(s.AllTables()) }

// Footprint reports the aggregate and largest-shard dense tables; the
// largest shard is the resident unit, since only one shard's tables are
// hot at a time.
func (s *Sharded) Footprint() Footprint {
	largest := s.MaxShardBytes()
	slots := 0
	for _, e := range s.Engines {
		slots += len(e.Tables)
	}
	return Footprint{
		KernelTableBytes:   s.TableBytes(),
		Shards:             s.Shards(),
		MaxShardTableBytes: largest,
		Slots:              slots,
		Resident:           largest,
	}
}

// Sharded image serialization ------------------------------------------
//
// A versioned container around the per-table kernel images, so a
// sharded artifact ships as one blob (little-endian):
//
//	magic "CMSHD1\x00"
//	u32 shardCount
//	per shard: u32 maxPatternLen, u32 tableCount,
//	           per table: u32 imageLen, kernel image bytes
//
// Shard plans are not stored: tables already carry global pattern ids.

var shardMagic = []byte("CMSHD1\x00")

// Bytes serializes the sharded engine to its container image.
func (s *Sharded) Bytes() []byte {
	le := binary.LittleEndian
	out := append([]byte(nil), shardMagic...)
	out = le.AppendUint32(out, uint32(len(s.Engines)))
	for _, e := range s.Engines {
		out = le.AppendUint32(out, uint32(e.MaxPatternLen))
		out = le.AppendUint32(out, uint32(len(e.Tables)))
		for _, t := range e.Tables {
			img := t.Bytes()
			out = le.AppendUint32(out, uint32(len(img)))
			out = append(out, img...)
		}
	}
	return out
}

// ShardedFromBytes reconstructs and validates a sharded container
// image. A loaded engine scans identically to the compiled one.
func ShardedFromBytes(img []byte) (*Sharded, error) {
	if len(img) < len(shardMagic)+4 || !bytes.Equal(img[:len(shardMagic)], shardMagic) {
		return nil, fmt.Errorf("kernel: not a sharded kernel image")
	}
	le := binary.LittleEndian
	p := len(shardMagic)
	get := func() (uint32, error) {
		if len(img) < p+4 {
			return 0, fmt.Errorf("kernel: truncated sharded image")
		}
		v := le.Uint32(img[p:])
		p += 4
		return v, nil
	}
	nShards, err := get()
	if err != nil {
		return nil, err
	}
	if nShards == 0 || nShards > MaxShardsLimit {
		return nil, fmt.Errorf("kernel: implausible shard count %d", nShards)
	}
	s := &Sharded{}
	for si := 0; si < int(nShards); si++ {
		maxLen, err := get()
		if err != nil {
			return nil, err
		}
		if maxLen > 1<<20 {
			return nil, fmt.Errorf("kernel: shard %d implausible pattern length %d", si, maxLen)
		}
		nTables, err := get()
		if err != nil {
			return nil, err
		}
		if nTables == 0 || nTables > 1<<16 {
			return nil, fmt.Errorf("kernel: shard %d implausible table count %d", si, nTables)
		}
		e := &Engine{MaxPatternLen: int(maxLen)}
		for ti := 0; ti < int(nTables); ti++ {
			l, err := get()
			if err != nil {
				return nil, err
			}
			if len(img) < p+int(l) {
				return nil, fmt.Errorf("kernel: shard %d table %d truncated", si, ti)
			}
			t, err := FromBytes(img[p : p+int(l)])
			if err != nil {
				return nil, fmt.Errorf("kernel: shard %d table %d: %w", si, ti, err)
			}
			p += int(l)
			e.Tables = append(e.Tables, t)
		}
		s.Engines = append(s.Engines, e)
	}
	if p != len(img) {
		return nil, fmt.Errorf("kernel: %d trailing bytes in sharded image", len(img)-p)
	}
	return s, nil
}
