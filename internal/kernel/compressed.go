// Compressed-row tables: the engine-ladder rung between the dense
// kernel and the sharded tier, for dictionaries whose dense tables
// blow the byte budget but whose *structure* is still small.
//
// A dense table spends width × 4 bytes per state regardless of how
// few transitions in a row are "interesting". On Aho-Corasick shaped
// automata almost every row is its fail state's row with a handful of
// overrides (the state's own goto edges), so the information content
// per state is tiny. The compressed representation stores exactly
// that:
//
//   - a per-state class bitmap (one bit per reduced symbol) marking
//     which columns carry an explicit transition;
//   - a packed array of the explicit transition entries, indexed by
//     popcount rank over the bitmap — no per-column storage for the
//     (vast) default majority;
//   - a per-state default transition: a D²FA-style fallback pointer to
//     another state whose row supplies every column the bitmap leaves
//     implicit. Lookups chase the default chain until a bitmap bit is
//     set; chains strictly descend toward the start state, whose row
//     is fully explicit, so every lookup terminates.
//
// The result fits 10-100x larger state machines in L2 at the cost of
// a popcount and an occasional extra hop per byte — the same
// capacity-vs-ops trade the paper makes with its alphabet reduction
// (spend a lookup to shrink the table) applied one level up.
//
// The chain walk's data-dependent branch would dominate the scan if
// every byte paid it, so compilation renumbers states by approximate
// stationary mass (hot first) and derives small dense rows for the
// top few — under real traffic the automaton spends ~99% of its time
// in those states, so the common case is the dense kernel's
// single-load step and the predictor learns the "is it hot?" branch.
// The hot rows are derived state, never serialized: images stay pure
// compressed rows and loaders rebuild the accelerator.
//
// Entries are encoded as destState<<1 | FlagOut, and the carried
// stream state (StartRow/ScanCarry) uses the same encoding, so the
// CTable satisfies the CarryScanner contract alongside the dense
// Table. Compilation derives the default pointers purely from the
// dense DFA rows (a BFS recovers the Aho-Corasick failure structure
// when it exists, and degrades to start-state defaults otherwise), so
// compiled and loaded tables are byte-identical — the same determinism
// invariant the rest of the compile pipeline keeps.
package kernel

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
	"cellmatch/internal/interleave"
)

// CarryScanner is the incremental-scan contract shared by the dense
// table and the compressed-row table: scan a piece from an opaque
// carried row value and return the successor value. Carried values are
// representation-specific encodings (dense: state << log2(width);
// compressed: state << 1) — callers treat them as opaque and only
// thread them between pieces of one logical stream.
type CarryScanner interface {
	StartRow() uint32
	ScanCarry(piece []byte, cur uint32, emit func(pid int32, end int)) uint32
}

// Compile-time checks: both table representations satisfy the
// streaming contract (the stt rung's slot automata do too, see STT).
var (
	_ CarryScanner = (*Table)(nil)
	_ CarryScanner = (*CTable)(nil)
)

// CTable is one series slot's compressed-row automaton.
type CTable struct {
	// Classes is the meaningful symbol count (the reduced alphabet).
	Classes int
	// States is the automaton size.
	States int

	// ByteClass folds the alphabet reduction into the table, exactly
	// like the dense Table: raw byte -> column index.
	ByteClass [256]byte

	// Bitmaps holds States × wpc words; bit c of state s's row marks
	// class c as an explicit transition.
	Bitmaps []uint64
	// Defaults holds the per-state default pointer: the state whose row
	// resolves every class the bitmap leaves implicit. Defaults[s] == s
	// marks a fully explicit row (the chain terminator).
	Defaults []uint32
	// Offsets[s] indexes state s's first explicit entry; Offsets has
	// States+1 entries so a row's count is Offsets[s+1]-Offsets[s].
	Offsets []uint32
	// Explicit holds the packed transition entries in class order,
	// encoded destState<<1 | FlagOut.
	Explicit []uint32

	// Outs lists the pattern ids reported when entering each state,
	// with global dictionary indices baked in (same as Table.Outs).
	Outs [][]int32

	wpc   int    // bitmap words per state: (Classes+63)/64
	start uint32 // start state id

	// hot is the derived hot-row accelerator: resolved dense rows for
	// states 0..hotLimit>>5-1, padded to a fixed stride of 32 entries so
	// indexing is a shift, each entry encoded dest<<5 | FlagOut. The
	// compile path renumbers states so the highest-stationary-mass
	// states come first, which makes "s < m" a branch the predictor
	// nearly always gets right: the chain walk only runs for the cold
	// tail. Derived (never serialized) — loaded images rebuild it.
	hot      []uint32
	hotLimit uint32 // hot-state count << 5; 0 disables the hot path
}

// hotRowCap bounds the hot-row accelerator: 128 states × 32 entries ×
// 4 bytes = 16 KiB per slot, a fraction of the dense row budget the
// rung exists to avoid, while covering the overwhelming majority of
// scan steps (the stationary distribution of AC-shaped automata is
// concentrated in the shallow states the renumbering puts first).
const hotRowCap = 128

// ctableBytes is the resident footprint of a compressed table with the
// given geometry — the arithmetic the budget pre-check and SizeBytes
// share. The derived hot rows are part of the resident set, so they
// are priced here too.
func ctableBytes(states, classes, explicit int) int {
	wpc := (classes + 63) / 64
	return states*wpc*8 + states*4 + (states+1)*4 + explicit*4 + hotBytes(states, classes)
}

// hotBytes is the hot-row accelerator's footprint for the given
// geometry: zero when the geometry disqualifies the hot path (wide
// alphabets, or state counts that would overflow the <<5 encoding).
func hotBytes(states, classes int) int {
	if classes > 32 || states > 1<<25 {
		return 0
	}
	m := hotRowCap
	if m > states {
		m = states
	}
	return m * 32 * 4
}

// SizeBytes is the compressed table's memory footprint (bitmaps,
// defaults, offsets, explicit entries).
func (t *CTable) SizeBytes() int {
	return ctableBytes(t.States, t.Classes, len(t.Explicit))
}

// StartRow returns the start state's encoded carry value.
func (t *CTable) StartRow() uint32 { return t.start << 1 }

// cplan is the allocation-free first pass over one slot: the default
// pointer per state and the explicit-entry counts, enough to price the
// table against the byte budget before building it.
type cplan struct {
	defaults []uint32
	counts   []uint32
	explicit int
}

// planCTable derives the default-pointer chain and explicit counts
// from the dense DFA rows alone. The BFS recovers Aho-Corasick
// failure structure when the automaton has it: a state first
// discovered via (s, c) gets default δ(default(s), c), which for an AC
// automaton is exactly fail(t), making the explicit set just the
// state's own goto edges. For automata without that shape (regex
// subset construction) the candidate is kept only when it was
// discovered earlier — otherwise the default degrades to the start
// state — so chains strictly descend in discovery order and always
// terminate at a fully explicit row. Correctness never depends on the
// heuristic: explicit bits are defined as "differs from the default's
// row", so any default choice yields the same resolved transitions,
// only a different footprint.
func planCTable(d *dfa.DFA) *cplan {
	n := d.NumStates()
	syms := d.Syms
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	defaults := make([]uint32, n)
	queue := make([]int32, 0, n)
	idx[d.Start] = 0
	defaults[d.Start] = uint32(d.Start)
	queue = append(queue, int32(d.Start))
	order := int32(1)
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		row := d.Next[int(s)*syms : int(s)*syms+syms]
		drow := d.Next[int(defaults[s])*syms:]
		for c := 0; c < syms; c++ {
			t := row[c]
			if idx[t] >= 0 {
				continue
			}
			idx[t] = order
			order++
			cand := drow[c]
			if idx[cand] < 0 || cand == t {
				cand = int32(d.Start)
			}
			defaults[t] = uint32(cand)
			queue = append(queue, t)
		}
	}
	// Unreachable states (possible in loaded artifacts) get fully
	// explicit rows: never scanned, but the invariants stay uniform.
	for s := 0; s < n; s++ {
		if idx[s] < 0 {
			defaults[s] = uint32(s)
		}
	}
	p := &cplan{defaults: defaults, counts: make([]uint32, n)}
	for s := 0; s < n; s++ {
		def := int(defaults[s])
		if def == s {
			p.counts[s] = uint32(syms)
			p.explicit += syms
			continue
		}
		row := d.Next[s*syms : s*syms+syms]
		drow := d.Next[def*syms : def*syms+syms]
		cnt := 0
		for c := 0; c < syms; c++ {
			if row[c] != drow[c] {
				cnt++
			}
		}
		p.counts[s] = uint32(cnt)
		p.explicit += cnt
	}
	return p
}

// hotPerm orders states by approximate stationary mass under uniform
// random input — a few damped power-iteration rounds over the dense
// rows — and returns the old->new renumbering that puts the hottest
// states first. The scan loop tests hotness with a single register
// compare (s < m) precisely because of this renumbering. Returns nil
// (identity) when the geometry disqualifies the hot path. Pure
// float64 arithmetic with a deterministic tie-break, so compiles stay
// byte-identical across runs and worker counts.
func hotPerm(d *dfa.DFA) []uint32 {
	n := d.NumStates()
	if d.Syms > 32 || n > 1<<25 {
		return nil
	}
	syms := d.Syms
	p := make([]float64, n)
	q := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	const damp = 0.85
	step := damp / float64(syms)
	mix := (1 - damp) / float64(n)
	for it := 0; it < 8; it++ {
		for i := range q {
			q[i] = mix
		}
		for s := 0; s < n; s++ {
			w := p[s] * step
			row := d.Next[s*syms : s*syms+syms]
			for _, t := range row {
				q[t] += w
			}
		}
		p, q = q, p
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if p[order[a]] != p[order[b]] {
			return p[order[a]] > p[order[b]]
		}
		return order[a] < order[b]
	})
	perm := make([]uint32, n)
	for newID, old := range order {
		perm[old] = uint32(newID)
	}
	return perm
}

// buildHot derives the hot-row accelerator from the finished table:
// fully resolved rows for the first m states, stride 32, entries
// encoded dest<<5 | FlagOut. Correctness never depends on which
// states are hot — any prefix works — so loaded images (renumbered at
// compile time or not) rebuild it unconditionally when the geometry
// allows.
func (t *CTable) buildHot() {
	if t.wpc != 1 || t.Classes > 32 || t.States > 1<<25 {
		return
	}
	m := hotRowCap
	if m > t.States {
		m = t.States
	}
	hot := make([]uint32, m*32)
	for s := 0; s < m; s++ {
		for c := 0; c < t.Classes; c++ {
			e := t.next(uint32(s), uint32(c))
			hot[s<<5|c] = e>>1<<5 | e&FlagOut
		}
	}
	t.hot = hot
	t.hotLimit = uint32(m) << 5
}

// buildCTable emits the compressed table for one slot from its plan.
// byteClass is the reduction map; ids maps slot-local pattern ids to
// global ones; workers splits the row emission into contiguous state
// ranges (disjoint writes — identical output at any worker count).
// States are renumbered hot-first (see hotPerm) before emission.
func buildCTable(d *dfa.DFA, byteClass [256]byte, ids []int, plan *cplan, workers int) (*CTable, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Out == nil {
		return nil, fmt.Errorf("kernel: DFA lacks output sets")
	}
	n := d.NumStates()
	if n >= 1<<30 {
		return nil, fmt.Errorf("kernel: %d states overflow compressed entry encoding", n)
	}
	for b, c := range byteClass {
		if int(c) >= d.Syms {
			return nil, fmt.Errorf("kernel: byte %#x maps to class %d, alphabet %d", b, c, d.Syms)
		}
	}
	syms := d.Syms
	wpc := (syms + 63) / 64
	perm := hotPerm(d)
	ren := func(s uint32) uint32 {
		if perm == nil {
			return s
		}
		return perm[s]
	}
	t := &CTable{
		Classes:   syms,
		States:    n,
		ByteClass: byteClass,
		Bitmaps:   make([]uint64, n*wpc),
		Defaults:  make([]uint32, n),
		Offsets:   make([]uint32, n+1),
		Outs:      make([][]int32, n),
		wpc:       wpc,
		start:     ren(uint32(d.Start)),
	}
	counts := make([]uint32, n)
	for s := 0; s < n; s++ {
		counts[ren(uint32(s))] = plan.counts[s]
	}
	for s := 0; s < n; s++ {
		t.Offsets[s+1] = t.Offsets[s] + counts[s]
	}
	for s := 0; s < n; s++ {
		if len(d.Out[s]) > 0 {
			out := make([]int32, len(d.Out[s]))
			for i, pid := range d.Out[s] {
				if pid < 0 || int(pid) >= len(ids) {
					return nil, fmt.Errorf("kernel: state %d reports pattern %d of %d", s, pid, len(ids))
				}
				out[i] = int32(ids[pid])
			}
			t.Outs[ren(uint32(s))] = out
		}
	}
	t.Explicit = make([]uint32, plan.explicit)
	entryFor := func(next int32) uint32 {
		e := ren(uint32(next)) << 1
		if len(d.Out[next]) > 0 {
			e |= FlagOut
		}
		return e
	}
	fanout.ForRanges(n, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			ns := ren(uint32(s))
			t.Defaults[ns] = ren(plan.defaults[s])
			row := d.Next[s*syms : s*syms+syms]
			base := int(ns) * wpc
			off := t.Offsets[ns]
			if int(plan.defaults[s]) == s {
				for c := 0; c < syms; c++ {
					t.Bitmaps[base+c>>6] |= 1 << (c & 63)
					t.Explicit[off] = entryFor(row[c])
					off++
				}
				continue
			}
			drow := d.Next[int(plan.defaults[s])*syms : int(plan.defaults[s])*syms+syms]
			for c := 0; c < syms; c++ {
				if row[c] != drow[c] {
					t.Bitmaps[base+c>>6] |= 1 << (c & 63)
					t.Explicit[off] = entryFor(row[c])
					off++
				}
			}
		}
	})
	t.buildHot()
	return t, nil
}

// next resolves one transition: chase the default chain from state s
// until a bitmap bit for class c is set, then rank into the explicit
// array. Chains terminate because they strictly descend to a fully
// explicit row (Validate enforces this on loaded images).
func (t *CTable) next(s, c uint32) uint32 {
	if t.wpc == 1 {
		bm, defs, offs, exp := t.Bitmaps, t.Defaults, t.Offsets, t.Explicit
		for {
			w := bm[s]
			if w>>c&1 != 0 {
				return exp[offs[s]+uint32(bits.OnesCount64(w&(1<<c-1)))]
			}
			s = defs[s]
		}
	}
	return t.nextWide(s, c)
}

// nextWide is the >64-class form of next: the bitmap row spans wpc
// words, so the rank sums the preceding words' popcounts.
func (t *CTable) nextWide(s, c uint32) uint32 {
	wpc := uint32(t.wpc)
	word, bit := c>>6, c&63
	for {
		base := s * wpc
		w := t.Bitmaps[base+word]
		if w>>bit&1 != 0 {
			rank := bits.OnesCount64(w & (1<<bit - 1))
			for j := uint32(0); j < word; j++ {
				rank += bits.OnesCount64(t.Bitmaps[base+j])
			}
			return t.Explicit[t.Offsets[s]+uint32(rank)]
		}
		s = t.Defaults[s]
	}
}

// cold5 resolves one transition for the hot-encoded scan loops: v is
// the current dest<<5|flag value (a cold state), c the class. It runs
// the ordinary chain walk and re-encodes the result. Out of the hot
// loops so their bodies stay tight; only the cold minority of bytes
// lands here.
func (t *CTable) cold5(v, c uint32) uint32 {
	s := v >> 5
	bm, defs := t.Bitmaps, t.Defaults
	for bm[s]>>c&1 == 0 {
		s = defs[s]
	}
	w := bm[s]
	e := t.Explicit[t.Offsets[s]+uint32(bits.OnesCount64(w&(1<<c-1)))]
	return e>>1<<5 | e&FlagOut
}

// emit5 is emit for the hot-encoded loops (v = dest<<5|flag).
func (t *CTable) emit5(v uint32, localEnd, base, dedupe int, sink *[]dfa.Match) {
	if localEnd <= dedupe {
		return
	}
	for _, pid := range t.Outs[v>>5] {
		*sink = append(*sink, dfa.Match{Pattern: pid, End: base + localEnd})
	}
}

// emit appends the output set of the state entry e transitioned into,
// unless the match ends inside the chunk's dedupe window.
func (t *CTable) emit(e uint32, localEnd, base, dedupe int, sink *[]dfa.Match) {
	if localEnd <= dedupe {
		return
	}
	for _, pid := range t.Outs[e>>1] {
		*sink = append(*sink, dfa.Match{Pattern: pid, End: base + localEnd})
	}
}

// scanSerialHot is the single-stream loop over a table with hot rows:
// the common case is one dense load (v&^1 strips the flag; the low
// five bits of a hot-encoded value are otherwise the class slot), the
// cold tail falls back to the chain walk. Unrolled 4x like the dense
// kernel's serial loop.
func (t *CTable) scanSerialHot(piece []byte, base, dedupe int, sink *[]dfa.Match) {
	cls := &t.ByteClass
	hot, limit := t.hot, t.hotLimit
	v := t.start << 5
	n := len(piece)
	i := 0
	for ; i+4 <= n; i += 4 {
		if v < limit {
			v = hot[(v&^1)+uint32(cls[piece[i]])]
		} else {
			v = t.cold5(v, uint32(cls[piece[i]]))
		}
		if v&FlagOut != 0 {
			t.emit5(v, i+1, base, dedupe, sink)
		}
		if v < limit {
			v = hot[(v&^1)+uint32(cls[piece[i+1]])]
		} else {
			v = t.cold5(v, uint32(cls[piece[i+1]]))
		}
		if v&FlagOut != 0 {
			t.emit5(v, i+2, base, dedupe, sink)
		}
		if v < limit {
			v = hot[(v&^1)+uint32(cls[piece[i+2]])]
		} else {
			v = t.cold5(v, uint32(cls[piece[i+2]]))
		}
		if v&FlagOut != 0 {
			t.emit5(v, i+3, base, dedupe, sink)
		}
		if v < limit {
			v = hot[(v&^1)+uint32(cls[piece[i+3]])]
		} else {
			v = t.cold5(v, uint32(cls[piece[i+3]]))
		}
		if v&FlagOut != 0 {
			t.emit5(v, i+4, base, dedupe, sink)
		}
	}
	for ; i < n; i++ {
		if v < limit {
			v = hot[(v&^1)+uint32(cls[piece[i]])]
		} else {
			v = t.cold5(v, uint32(cls[piece[i]]))
		}
		if v&FlagOut != 0 {
			t.emit5(v, i+1, base, dedupe, sink)
		}
	}
}

// scanSerial runs the single-stream loop over raw bytes, appending
// matches with End = base + local offset and dropping those ending at
// local offsets <= dedupe. Tables with hot rows take the dense-load
// fast path; the wpc==1 fallback keeps the whole chain-walk inline:
// one bitmap word, one popcount, one load on a hit.
func (t *CTable) scanSerial(piece []byte, base, dedupe int, sink *[]dfa.Match) {
	if t.hot != nil {
		t.scanSerialHot(piece, base, dedupe, sink)
		return
	}
	cls := &t.ByteClass
	cur := t.start
	if t.wpc == 1 {
		bm, defs, offs, exp := t.Bitmaps, t.Defaults, t.Offsets, t.Explicit
		for i := 0; i < len(piece); i++ {
			c := uint32(cls[piece[i]])
			s := cur
			for bm[s]>>c&1 == 0 {
				s = defs[s]
			}
			w := bm[s]
			e := exp[offs[s]+uint32(bits.OnesCount64(w&(1<<c-1)))]
			if e&FlagOut != 0 {
				t.emit(e, i+1, base, dedupe, sink)
			}
			cur = e >> 1
		}
		return
	}
	for i := 0; i < len(piece); i++ {
		e := t.nextWide(cur, uint32(cls[piece[i]]))
		if e&FlagOut != 0 {
			t.emit(e, i+1, base, dedupe, sink)
		}
		cur = e >> 1
	}
}

// scanInterleaved advances every chunk's cursor once per lockstep
// iteration, the same latency-hiding schedule as the dense kernel's:
// K independent chain walks in flight per iteration. Each lane starts
// from the root and its overlap prefix is deduped, so the union of
// lane matches equals the sequential scan's.
func (t *CTable) scanInterleaved(data []byte, chunks []interleave.Chunk, sink *[]dfa.Match) {
	k := len(chunks)
	if k > MaxInterleave {
		panic("kernel: more chunks than interleave lanes")
	}
	var cur [MaxInterleave]uint32
	minLen := -1
	for l := 0; l < k; l++ {
		cur[l] = t.start
		if n := chunks[l].Len(); minLen < 0 || n < minLen {
			minLen = n
		}
	}
	cls := &t.ByteClass
	if t.hot != nil {
		hot, limit := t.hot, t.hotLimit
		for l := 0; l < k; l++ {
			cur[l] = t.start << 5
		}
		for p := 0; p < minLen; p++ {
			for l := 0; l < k; l++ {
				c := chunks[l]
				v := cur[l]
				if v < limit {
					v = hot[(v&^1)+uint32(cls[data[c.Start+p]])]
				} else {
					v = t.cold5(v, uint32(cls[data[c.Start+p]]))
				}
				if v&FlagOut != 0 {
					t.emit5(v, p+1, c.Start, c.Overlap, sink)
				}
				cur[l] = v
			}
		}
		for l := 0; l < k; l++ {
			c := chunks[l]
			v := cur[l]
			for p := minLen; p < c.Len(); p++ {
				if v < limit {
					v = hot[(v&^1)+uint32(cls[data[c.Start+p]])]
				} else {
					v = t.cold5(v, uint32(cls[data[c.Start+p]]))
				}
				if v&FlagOut != 0 {
					t.emit5(v, p+1, c.Start, c.Overlap, sink)
				}
			}
		}
		return
	}
	if t.wpc == 1 {
		bm, defs, offs, exp := t.Bitmaps, t.Defaults, t.Offsets, t.Explicit
		for p := 0; p < minLen; p++ {
			for l := 0; l < k; l++ {
				c := chunks[l]
				cc := uint32(cls[data[c.Start+p]])
				s := cur[l]
				for bm[s]>>cc&1 == 0 {
					s = defs[s]
				}
				w := bm[s]
				e := exp[offs[s]+uint32(bits.OnesCount64(w&(1<<cc-1)))]
				if e&FlagOut != 0 {
					t.emit(e, p+1, c.Start, c.Overlap, sink)
				}
				cur[l] = e >> 1
			}
		}
	} else {
		for p := 0; p < minLen; p++ {
			for l := 0; l < k; l++ {
				c := chunks[l]
				e := t.nextWide(cur[l], uint32(cls[data[c.Start+p]]))
				if e&FlagOut != 0 {
					t.emit(e, p+1, c.Start, c.Overlap, sink)
				}
				cur[l] = e >> 1
			}
		}
	}
	// Uneven tails (the last chunk is usually shorter).
	for l := 0; l < k; l++ {
		c := chunks[l]
		s := cur[l]
		for p := minLen; p < c.Len(); p++ {
			e := t.next(s, uint32(cls[data[c.Start+p]]))
			if e&FlagOut != 0 {
				t.emit(e, p+1, c.Start, c.Overlap, sink)
			}
			s = e >> 1
		}
	}
}

// countSerial counts hits in piece from the root, ignoring matches
// that end inside the dedupe-byte overlap prefix.
func (t *CTable) countSerial(piece []byte, dedupe int) int {
	cls := &t.ByteClass
	count := 0
	if t.hot != nil {
		hot, limit := t.hot, t.hotLimit
		v := t.start << 5
		for i := 0; i < len(piece); i++ {
			if v < limit {
				v = hot[(v&^1)+uint32(cls[piece[i]])]
			} else {
				v = t.cold5(v, uint32(cls[piece[i]]))
			}
			if v&FlagOut != 0 && i >= dedupe {
				count += len(t.Outs[v>>5])
			}
		}
		return count
	}
	cur := t.start
	for i := 0; i < len(piece); i++ {
		e := t.next(cur, uint32(cls[piece[i]]))
		if e&FlagOut != 0 && i >= dedupe {
			count += len(t.Outs[e>>1])
		}
		cur = e >> 1
	}
	return count
}

// ScanCarry scans piece from the encoded carry cur (stream
// continuation: no speculative restart, no dedupe), calling emit for
// every hit with a 1-based piece-local end offset, and returns the
// final carry — the CarryScanner contract shared with the dense Table.
func (t *CTable) ScanCarry(piece []byte, cur uint32, emit func(pid int32, end int)) uint32 {
	cls := &t.ByteClass
	s := cur >> 1
	if t.hot != nil {
		hot, limit := t.hot, t.hotLimit
		v := s << 5
		for i := 0; i < len(piece); i++ {
			if v < limit {
				v = hot[(v&^1)+uint32(cls[piece[i]])]
			} else {
				v = t.cold5(v, uint32(cls[piece[i]]))
			}
			if v&FlagOut != 0 {
				for _, pid := range t.Outs[v>>5] {
					emit(pid, i+1)
				}
			}
		}
		return v >> 5 << 1
	}
	if t.wpc == 1 {
		bm, defs, offs, exp := t.Bitmaps, t.Defaults, t.Offsets, t.Explicit
		for i := 0; i < len(piece); i++ {
			c := uint32(cls[piece[i]])
			r := s
			for bm[r]>>c&1 == 0 {
				r = defs[r]
			}
			w := bm[r]
			e := exp[offs[r]+uint32(bits.OnesCount64(w&(1<<c-1)))]
			if e&FlagOut != 0 {
				t.emitCarry(e, i+1, emit)
			}
			s = e >> 1
		}
		return s << 1
	}
	for i := 0; i < len(piece); i++ {
		e := t.nextWide(s, uint32(cls[piece[i]]))
		if e&FlagOut != 0 {
			t.emitCarry(e, i+1, emit)
		}
		s = e >> 1
	}
	return s << 1
}

// emitCarry reports the output set of the state entry e transitioned
// into (kept out of ScanCarry's hot loop).
func (t *CTable) emitCarry(e uint32, end int, emit func(pid int32, end int)) {
	for _, pid := range t.Outs[e>>1] {
		emit(pid, end)
	}
}

// Compressed is the compiled compressed-row matcher: one CTable per
// series slot plus the scan policy, mirroring Engine's surface.
type Compressed struct {
	// Tables holds one compressed table per series slot.
	Tables []*CTable
	// MaxPatternLen sizes the interleave overlap window.
	MaxPatternLen int

	opts Options
}

// CompileCompressed flattens a composed system into compressed-row
// tables. It returns ErrBudget (wrapped) when the aggregate compressed
// footprint exceeds Options.MaxTableBytes — the caller decides the
// effective budget (the core ladder's auto policy additionally caps it
// at L2Budget, since a compressed table that spills past L2 loses the
// residency advantage that justifies its extra ops per byte). The
// planning pass prices every slot before any table is allocated, so an
// over-budget dictionary costs two row sweeps, not a build — and one
// whose state count alone overflows the budget costs no sweep.
func CompileCompressed(sys *compose.System, opts Options) (*Compressed, error) {
	o := opts.withDefaults()
	if len(sys.Slots) == 0 {
		return nil, fmt.Errorf("kernel: system has no slots")
	}
	// Bitmaps, defaults, offsets and hot rows alone are a floor on the
	// footprint: a dictionary over budget before any explicit entry is
	// priced needs no plan.
	floor := 0
	for _, d := range sys.Slots {
		floor += ctableBytes(d.NumStates(), d.Syms, 0)
	}
	if floor > o.MaxTableBytes {
		return nil, fmt.Errorf("%w: compressed rows for %d slots need > %d bytes", ErrBudget, len(sys.Slots), o.MaxTableBytes)
	}
	plans := make([]*cplan, len(sys.Slots))
	fanout.ForEach(len(sys.Slots), o.Workers, func(i int) {
		plans[i] = planCTable(sys.Slots[i])
	})
	total := 0
	for i, d := range sys.Slots {
		total += ctableBytes(d.NumStates(), d.Syms, plans[i].explicit)
		if total > o.MaxTableBytes {
			return nil, fmt.Errorf("%w: compressed rows for %d slots need > %d bytes", ErrBudget, len(sys.Slots), o.MaxTableBytes)
		}
	}
	e := &Compressed{MaxPatternLen: sys.MaxPatternLen, opts: o}
	e.Tables = make([]*CTable, len(sys.Slots))
	inner := 1
	if w := fanout.Workers(o.Workers); len(sys.Slots) < w {
		inner = (w + len(sys.Slots) - 1) / len(sys.Slots)
	}
	err := fanout.ForEachErr(len(sys.Slots), o.Workers, func(i int) error {
		t, err := buildCTable(sys.Slots[i], sys.Red.Map, sys.SlotPatterns[i], plans[i], inner)
		if err != nil {
			return err
		}
		e.Tables[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// TableBytes is the aggregate compressed-table footprint.
func (e *Compressed) TableBytes() int {
	total := 0
	for _, t := range e.Tables {
		total += t.SizeBytes()
	}
	return total
}

// InterleaveFor reports the lane count FindAll and Count use on an
// input of n bytes: serial unless Options.InterleaveK pins lanes. The
// compressed rows take a data-dependent branch per byte (hot row or
// cold search), and the generic K-way loop measured slower than the
// serial loop at every piece size of BenchmarkCompressedLanes, so the
// dense rung's chooseK rule does not apply here.
func (e *Compressed) InterleaveFor(int) int { return min(max(e.opts.InterleaveK, 1), MaxInterleave) }

func (e *Compressed) overlap() int {
	if e.MaxPatternLen > 0 {
		return e.MaxPatternLen - 1
	}
	return 0
}

// laneChunks returns the interleave split for a k-lane scan, or nil
// when the single-stream loop should run instead.
func (e *Compressed) laneChunks(data []byte, k int) []interleave.Chunk {
	if k <= 1 || len(data) == 0 {
		return nil
	}
	if k > MaxInterleave {
		k = MaxInterleave
	}
	chunks, err := interleave.SplitWithOverlap(len(data), k, e.overlap())
	if err != nil { // unreachable for k >= 1, n >= 0
		return nil
	}
	return chunks
}

// FindAll scans raw data and returns every dictionary occurrence with
// global pattern ids, sorted by (End, Pattern) — byte-for-byte the
// output of compose.System.Scan and of the dense engine.
func (e *Compressed) FindAll(data []byte) []dfa.Match {
	return e.FindAllK(data, e.InterleaveFor(len(data)))
}

// FindAllK is FindAll with an explicit lane count (1 = single-stream
// loop). Any k >= 1 yields identical matches.
func (e *Compressed) FindAllK(data []byte, k int) []dfa.Match {
	var out []dfa.Match
	chunks := e.laneChunks(data, k)
	for _, t := range e.Tables {
		if chunks == nil {
			t.scanSerial(data, 0, 0, &out)
		} else {
			t.scanInterleaved(data, chunks, &out)
		}
	}
	dfa.SortMatches(out)
	return out
}

// Count returns the total occurrence count without materializing the
// match list: same lane layout as FindAll, a counter instead of a
// sink, no allocation and no sort.
func (e *Compressed) Count(data []byte) int {
	total := 0
	chunks := e.laneChunks(data, e.InterleaveFor(len(data)))
	for _, t := range e.Tables {
		if chunks == nil {
			total += t.countSerial(data, 0)
			continue
		}
		for _, c := range chunks {
			total += t.countSerial(data[c.Start:c.Start+c.Len()], c.Overlap)
		}
	}
	return total
}

// ScanChunk scans one raw piece from the root for the parallel engine:
// matches ending at local offsets <= dedupe are dropped (overlap
// duplicates), the rest are shifted by base. Output order is per-table
// scan order; the caller merges and sorts.
func (e *Compressed) ScanChunk(piece []byte, base, dedupe int) []dfa.Match {
	var out []dfa.Match
	for _, t := range e.Tables {
		t.scanSerial(piece, base, dedupe, &out)
	}
	return out
}

var _ Verifier = (*Compressed)(nil)

// Name reports the rung.
func (e *Compressed) Name() string { return "compressed" }

// Stride is 1: compressed rows step one byte per transition.
func (e *Compressed) Stride() int { return 1 }

// Units is 1: one table set scans every slot in one work item.
func (e *Compressed) Units() int { return 1 }

// ScanUnit is ScanChunk (the tier has a single unit).
func (e *Compressed) ScanUnit(_ int, piece []byte, base, dedupe int) []dfa.Match {
	return e.ScanChunk(piece, base, dedupe)
}

// CarryTables returns the per-slot compressed tables as carry scanners.
func (e *Compressed) CarryTables() []CarryScanner { return carryScanners(e.Tables) }

// Footprint reports the compressed tables, which are also the resident
// working set.
func (e *Compressed) Footprint() Footprint {
	b := e.TableBytes()
	return Footprint{CompressedTableBytes: b, Slots: len(e.Tables), Resident: b}
}

// Image serialization -------------------------------------------------
//
// Per-table layout (little-endian):
//
//	magic "CMCPR1\x00"
//	u32 classes, states, startState, explicitLen
//	byteClass [256]u8
//	bitmaps states*wpc x u64
//	defaults states x u32
//	offsets (states+1) x u32
//	explicit explicitLen x u32
//	outs: per state: u32 count, count x u32 pattern ids
//
// Container layout:
//
//	magic "CMCPS1\x00"
//	u32 maxPatternLen, tableCount
//	per table: u32 len, table image

var (
	cimgMagic = []byte("CMCPR1\x00")
	compMagic = []byte("CMCPS1\x00")
)

// Bytes serializes the compressed table to its image.
func (t *CTable) Bytes() []byte {
	size := len(cimgMagic) + 4*4 + 256 + len(t.Bitmaps)*8 +
		len(t.Defaults)*4 + len(t.Offsets)*4 + len(t.Explicit)*4
	for _, o := range t.Outs {
		size += 4 + len(o)*4
	}
	out := make([]byte, 0, size)
	out = append(out, cimgMagic...)
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(t.Classes))
	out = le.AppendUint32(out, uint32(t.States))
	out = le.AppendUint32(out, t.start)
	out = le.AppendUint32(out, uint32(len(t.Explicit)))
	out = append(out, t.ByteClass[:]...)
	for _, w := range t.Bitmaps {
		out = le.AppendUint64(out, w)
	}
	for _, v := range t.Defaults {
		out = le.AppendUint32(out, v)
	}
	for _, v := range t.Offsets {
		out = le.AppendUint32(out, v)
	}
	for _, v := range t.Explicit {
		out = le.AppendUint32(out, v)
	}
	for _, o := range t.Outs {
		out = le.AppendUint32(out, uint32(len(o)))
		for _, pid := range o {
			out = le.AppendUint32(out, uint32(pid))
		}
	}
	return out
}

// CTableFromBytes reconstructs and validates a compressed-table image.
// A loaded table scans identically to the compiled one.
func CTableFromBytes(img []byte) (*CTable, error) {
	if len(img) < len(cimgMagic)+4*4+256 || string(img[:len(cimgMagic)]) != string(cimgMagic) {
		return nil, fmt.Errorf("kernel: not a compressed-table image")
	}
	le := binary.LittleEndian
	p := len(cimgMagic)
	get := func() uint32 {
		v := le.Uint32(img[p:])
		p += 4
		return v
	}
	classes, states, start, explen := int(get()), int(get()), get(), int(get())
	if classes < 1 || classes > 256 {
		return nil, fmt.Errorf("kernel: bad compressed geometry classes=%d", classes)
	}
	wpc := (classes + 63) / 64
	if states < 1 || uint64(states)*uint64(wpc) > 1<<28 {
		return nil, fmt.Errorf("kernel: implausible compressed state count %d", states)
	}
	if int(start) >= states {
		return nil, fmt.Errorf("kernel: start state %d out of range", start)
	}
	if explen < 0 || uint64(explen) > uint64(states)*uint64(classes) {
		return nil, fmt.Errorf("kernel: implausible explicit count %d", explen)
	}
	need := 256 + states*wpc*8 + states*4 + (states+1)*4 + explen*4
	if len(img) < p+need {
		return nil, fmt.Errorf("kernel: truncated compressed image")
	}
	t := &CTable{
		Classes:  classes,
		States:   states,
		Bitmaps:  make([]uint64, states*wpc),
		Defaults: make([]uint32, states),
		Offsets:  make([]uint32, states+1),
		Explicit: make([]uint32, explen),
		Outs:     make([][]int32, states),
		wpc:      wpc,
		start:    start,
	}
	copy(t.ByteClass[:], img[p:p+256])
	p += 256
	for i := range t.Bitmaps {
		t.Bitmaps[i] = le.Uint64(img[p:])
		p += 8
	}
	for i := range t.Defaults {
		t.Defaults[i] = get()
	}
	for i := range t.Offsets {
		t.Offsets[i] = get()
	}
	for i := range t.Explicit {
		t.Explicit[i] = get()
	}
	for s := 0; s < states; s++ {
		if len(img) < p+4 {
			return nil, fmt.Errorf("kernel: truncated compressed output sets")
		}
		n := int(get())
		if n > 1<<20 || len(img) < p+n*4 {
			return nil, fmt.Errorf("kernel: implausible output set %d", n)
		}
		if n > 0 {
			o := make([]int32, n)
			for i := range o {
				pid := get()
				if pid > 1<<31-1 {
					return nil, fmt.Errorf("kernel: state %d output id %d overflows int32", s, pid)
				}
				o[i] = int32(pid)
			}
			t.Outs[s] = o
		}
	}
	if p != len(img) {
		return nil, fmt.Errorf("kernel: %d trailing bytes", len(img)-p)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.buildHot()
	return t, nil
}

// Validate checks the compressed table's structural invariants: the
// offsets are an exact prefix sum of the bitmap popcounts, every
// explicit entry targets a real state with a flag that agrees with the
// destination's output set, and every default chain terminates at a
// fully explicit row (so no scan can loop).
func (t *CTable) Validate() error {
	wpc := (t.Classes + 63) / 64
	if t.wpc != wpc {
		return fmt.Errorf("kernel: compressed wpc %d, want %d", t.wpc, wpc)
	}
	if len(t.Bitmaps) != t.States*wpc || len(t.Defaults) != t.States ||
		len(t.Offsets) != t.States+1 || len(t.Outs) != t.States {
		return fmt.Errorf("kernel: compressed arrays inconsistent with %d states", t.States)
	}
	if int(t.start) >= t.States {
		return fmt.Errorf("kernel: start state %d out of range", t.start)
	}
	for _, c := range t.ByteClass {
		if int(c) >= t.Classes {
			return fmt.Errorf("kernel: byte class %d >= %d", c, t.Classes)
		}
	}
	if t.Offsets[0] != 0 || int(t.Offsets[t.States]) != len(t.Explicit) {
		return fmt.Errorf("kernel: explicit offsets do not span %d entries", len(t.Explicit))
	}
	tailBits := t.Classes & 63 // bits allowed in the last word when partial
	for s := 0; s < t.States; s++ {
		if t.Offsets[s+1] < t.Offsets[s] {
			return fmt.Errorf("kernel: state %d offsets not monotone", s)
		}
		pop := 0
		for j := 0; j < wpc; j++ {
			w := t.Bitmaps[s*wpc+j]
			if j == wpc-1 && tailBits != 0 {
				if w>>uint(tailBits) != 0 {
					return fmt.Errorf("kernel: state %d bitmap has bits past class %d", s, t.Classes)
				}
			}
			pop += bits.OnesCount64(w)
		}
		if pop != int(t.Offsets[s+1]-t.Offsets[s]) {
			return fmt.Errorf("kernel: state %d popcount %d != explicit count %d", s, pop, t.Offsets[s+1]-t.Offsets[s])
		}
		if int(t.Defaults[s]) >= t.States {
			return fmt.Errorf("kernel: state %d default %d out of range", s, t.Defaults[s])
		}
		if int(t.Defaults[s]) == s && pop != t.Classes {
			return fmt.Errorf("kernel: state %d is self-default but only %d/%d classes explicit", s, pop, t.Classes)
		}
	}
	for i, e := range t.Explicit {
		dest := e >> 1
		if int(dest) >= t.States {
			return fmt.Errorf("kernel: explicit entry %d targets state %d of %d", i, dest, t.States)
		}
		if flagged, hasOut := e&FlagOut != 0, len(t.Outs[dest]) > 0; flagged != hasOut {
			return fmt.Errorf("kernel: explicit entry %d flag %v but |out|=%d", i, flagged, len(t.Outs[dest]))
		}
	}
	// Chain termination: memoized walk — 0 unknown, 1 terminates,
	// 2 in progress (a revisit while in progress is a cycle).
	state := make([]byte, t.States)
	var stack []uint32
	for s := 0; s < t.States; s++ {
		cur := uint32(s)
		stack = stack[:0]
		for state[cur] == 0 && int(t.Defaults[cur]) != int(cur) {
			state[cur] = 2
			stack = append(stack, cur)
			cur = t.Defaults[cur]
			if state[cur] == 2 {
				return fmt.Errorf("kernel: default chain cycle through state %d", cur)
			}
		}
		for _, v := range stack {
			state[v] = 1
		}
		state[cur] = 1
	}
	return nil
}

// Bytes serializes the whole compressed engine to a container image.
func (e *Compressed) Bytes() []byte {
	imgs := make([][]byte, len(e.Tables))
	size := len(compMagic) + 8
	for i, t := range e.Tables {
		imgs[i] = t.Bytes()
		size += 4 + len(imgs[i])
	}
	out := make([]byte, 0, size)
	out = append(out, compMagic...)
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(e.MaxPatternLen))
	out = le.AppendUint32(out, uint32(len(imgs)))
	for _, img := range imgs {
		out = le.AppendUint32(out, uint32(len(img)))
		out = append(out, img...)
	}
	return out
}

// CompressedFromBytes reconstructs a compressed engine from its
// container image, validating every table.
func CompressedFromBytes(img []byte) (*Compressed, error) {
	if len(img) < len(compMagic)+8 || string(img[:len(compMagic)]) != string(compMagic) {
		return nil, fmt.Errorf("kernel: not a compressed container image")
	}
	le := binary.LittleEndian
	p := len(compMagic)
	maxLen := int(le.Uint32(img[p:]))
	count := int(le.Uint32(img[p+4:]))
	p += 8
	if count < 1 || count > 1<<16 {
		return nil, fmt.Errorf("kernel: implausible compressed table count %d", count)
	}
	e := &Compressed{MaxPatternLen: maxLen, Tables: make([]*CTable, count)}
	for i := 0; i < count; i++ {
		if len(img) < p+4 {
			return nil, fmt.Errorf("kernel: truncated compressed container")
		}
		n := int(le.Uint32(img[p:]))
		p += 4
		if n < 0 || len(img) < p+n {
			return nil, fmt.Errorf("kernel: truncated compressed table %d", i)
		}
		t, err := CTableFromBytes(img[p : p+n])
		if err != nil {
			return nil, fmt.Errorf("compressed table %d: %w", i, err)
		}
		e.Tables[i] = t
		p += n
	}
	if p != len(img) {
		return nil, fmt.Errorf("kernel: %d trailing container bytes", len(img)-p)
	}
	return e, nil
}
