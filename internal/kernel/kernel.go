// Package kernel is the compiled host-CPU scan engine: the paper's
// cache-resident DFA tile translated to commodity hardware. Where
// internal/stt keeps the paper's literal SPE encoding (32-bit local
// store pointers, big-endian image) and internal/dfa keeps the
// textbook indexed automaton, this package flattens a compiled
// dictionary into the representation a superscalar host scans fastest:
//
//   - a 256-entry byte→class map with the alphabet reduction baked in,
//     so the kernel consumes raw input — no separate reduction pass and
//     no reduced copy of the data;
//   - a dense, cache-line-aligned []uint32 transition table whose
//     entries are pre-shifted row indexes (state × row width) with the
//     "destination state has output" flag packed into bit 0, the host
//     analog of the paper's pointer-encoded STT tile: one transition is
//     one indexed load, one AND, one ADD, with no multiply and no
//     per-byte output-set probe;
//   - two scan loops: a single-stream unrolled loop, and a lane loop
//     that splits a piece into 5 overlapping lanes and advances all of
//     them per iteration — the host equivalent of the paper's Figure 6a
//     multi-buffered streams — so 5 dependent table loads are in
//     flight at once and the L1/L2 hit latency of the resident table
//     is hidden behind instruction-level parallelism.
//
// Every 1-byte entry point — FindAll, Count, and ScanChunk, which
// scans each pooled chunk of internal/parallel — picks its loop by one
// rule on the piece length (chooseK): pieces of at least laneMinBytes
// (1 KiB, and 25 overlaps) scan as 5 lanes (scanLanes), shorter ones
// on the serial loop. Options.InterleaveK 1 pins the serial loop
// everywhere; any other value applies the rule. The 5-lane loop is the
// only lane loop: the stride-2 pair loops and the compressed rows
// always scan serially, because no lane form of theirs measured
// faster than their serial loop.
//
// The lane loop is split in two, the host form of the register
// pressure that the paper's Table 1 measures across its unrolled SPU
// kernels. A leaf (stepLanes) advances the five lanes with no call in
// its body and returns at the first byte where any lane's entry
// carries FlagOut; scanLanes emits that byte's matches and resumes the
// leaf. Go's register ABI has no callee-saved registers, so a loop
// that contains a call keeps the lane rows on the stack across it, and
// every lane's dependent load chain pays a store-to-load forward per
// byte, as the paper's spilling unroll does. Matches are sparse on the
// served workloads, so the leaf runs long stretches between exits.
//
// Lane boundaries reuse interleave.SplitWithOverlap: each lane re-scans
// an overlap window of MaxPatternLen-1 bytes from the root and drops
// matches ending inside it — or at or below the caller's dedupe
// offset — so the output is byte-for-byte identical to the sequential
// scan (same guarantee, and the same mechanism, as internal/parallel).
//
// Rows keep the DFA's state numbering; no rung renumbers. Aho-Corasick
// DFAs are numbered breadth-first (dfa.FromPatterns) and minimized
// regex DFAs are too, so the root and the shallow states, which take
// most transitions on traffic, fill the first rows of every table. A
// dictionary whose table is past L2 then keeps its hot rows in a few
// pages instead of spread over all of them: the host form of the paper
// keeping the hot STT inside the local store. Images saved with any
// other numbering still load and scan identically.
//
// Dictionaries whose dense tables exceed the configured budget (dense
// rows cost width × 4 bytes per state) are rejected by Compile with
// ErrBudget; callers step down the selection ladder.
//
// Every rung of that ladder — the stride-2 and dense Engine, the
// Compressed rows, the Sharded kernels, and the STT adapter over the
// stt/dfa path — implements one contract, Verifier (verifier.go), and
// its callers (core, parallel, the server) dispatch only through it.
// Each rung lives in its own file; adding or removing one touches that
// file plus the selection function in internal/core.
package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
	"cellmatch/internal/interleave"
)

// FlagOut is packed into entry bit 0: the transition's destination
// state has a non-empty output set (a dictionary hit ends here).
const FlagOut uint32 = 1

// rowMask clears the flag bit, yielding the destination row index.
const rowMask = ^uint32(1)

const (
	// DefaultMaxTableBytes is the dense-table budget when Options
	// leaves it zero: 8 MiB keeps the working set inside a commodity
	// last-level cache slice with room for the input stream.
	DefaultMaxTableBytes = 8 << 20

	// L1DataBudget and L2Budget classify table residency for
	// diagnostics (Matcher.Stats): typical per-core data cache sizes.
	L1DataBudget = 32 << 10
	L2Budget     = 1 << 20

	// laneK is the lane count chooseK picks, the width of the
	// written-out lane leaf (stepLanes). Picked from a sweep of the
	// leaf at K = 4..8 (BenchmarkLanes, the 1499-, 7985- and
	// 29996-state dictionaries, 2-vCPU Xeon, go1.24, median of 5,
	// MB/s). At 64 KiB pieces: K=4 2467/2229/1718, K=5 2673/2564/2013,
	// K=6 2466/2442/2169, K=7 2366/2326/2157, K=8 2214/2194/2096. At
	// 1 KiB: K=4 1890/1720/1372, K=5 1893/1798/1461, K=6
	// 1708/1672/1471. K=5 is at least K=4 on every dictionary from
	// 1 KiB up; K=6 gains on the 29996-state table past L2 but loses
	// to K=4 on the 1499-state one up to 8 KiB (1708 vs 1890 at
	// 1 KiB), and K=7 and K=8 lose there at every size.
	laneK = 5

	// laneMinBytes is the piece length from which chooseK scans as laneK
	// lanes, picked from a piece-size sweep of the call-free lane loop
	// (BenchmarkLanes, same dictionaries and host as above). 5 lanes
	// against the serial loop: 1.8x/1.8x/1.9x at 256 B, 2.6x/2.6x/2.7x at
	// 512 B, 3.3x/3.4x/3.4x at 1 KiB, 3.9-4.8x from 2 KiB. Below 1 KiB
	// 5 lanes trail 4 lanes on the two smaller tables (1488 vs 1548
	// MB/s at 512 B on 1499 states), so the cut stays at 1 KiB, one
	// doubling above 512 B, where every dictionary already wins
	// clearly.
	laneMinBytes = 1 << 10
)

// ErrBudget is returned by Compile when the dictionary's dense tables
// exceed the configured byte budget.
var ErrBudget = errors.New("kernel: dense table exceeds budget")

// Options tune compilation and scanning.
type Options struct {
	// MaxTableBytes is the aggregate dense-table budget across series
	// slots. <=0 means DefaultMaxTableBytes. With the stride-2 rung
	// live the budget covers the dense AND pair tables together.
	MaxTableBytes int
	// InterleaveK picks the 1-byte scan loop at every entry point,
	// ScanChunk (pooled chunks) included: 1 pins the single-stream
	// loop, any other value applies the piece-length rule (5 lanes from
	// 1 KiB, see chooseK). The stride-2 pair loops and the compressed
	// rows scan serially either way.
	InterleaveK int
	// Stride selects the symbols consumed per table transition.
	// 0 (auto) compiles the stride-2 pair tables when every slot stays
	// within AutoStride2MaxClasses classes, the aggregate pair table is
	// L2-resident (<= L2Budget — past that the pair loads on the serial
	// chain cost more than the two 1-byte loads they replace), and the
	// aggregate footprint (dense + pair) fits MaxTableBytes; 1 pins the
	// 1-byte kernel; 2 requests pair tables regardless of the auto
	// gates, still falling back to the 1-byte kernel when they cannot
	// fit MaxTableBytes.
	Stride int
	// Workers bounds the compile-time fan-out (fanout semantics:
	// 0 = one per core, 1 = sequential): slot tables compile
	// concurrently and the row/pair emission of large single tables
	// splits into ranges. The compiled engine is byte-identical at any
	// worker count.
	Workers int
}

// ResolveMaxTableBytes maps an Options.MaxTableBytes (or
// ShardConfig.MaxTableBytes) value to the effective byte budget:
// <= 0 selects DefaultMaxTableBytes, anything positive is taken
// verbatim. Every consumer of the budget — Options.withDefaults, the
// shard planner, and core's Stats()/compressed-tier admission —
// resolves through this one function so the default cannot drift
// between layers.
func ResolveMaxTableBytes(v int) int {
	if v <= 0 {
		return DefaultMaxTableBytes
	}
	return v
}

func (o Options) withDefaults() Options {
	o.MaxTableBytes = ResolveMaxTableBytes(o.MaxTableBytes)
	return o
}

// Table is one series slot's compiled automaton: the paper's STT tile
// re-encoded for host caches.
type Table struct {
	// Classes is the meaningful symbol count (the reduced alphabet).
	Classes int
	// Width is the row width in entries: a power of two >= Classes, so
	// a row index plus a class is a single add with no multiply.
	Width int
	// States is the automaton size.
	States int

	// ByteClass folds the alphabet reduction into the table: raw input
	// byte -> column index. The kernel scans unreduced data.
	ByteClass [256]byte

	// Entries holds States*Width encoded words, row-major, sliced from
	// a cache-line-aligned backing array. Entry = destRow | FlagOut,
	// where destRow = destState << shift.
	Entries []uint32

	// Pair holds the stride-2 rung's States*Width*Width pair-transition
	// words (see stride2.go), nil when the rung is not compiled in.
	// Entry = destPairRow | FlagOut, where destPairRow =
	// destState << (2*shift) and the flag squashes "either the
	// intermediate or the destination state has output".
	Pair []uint32

	// Outs lists the pattern ids reported when entering each state.
	// Ids are global dictionary indices (the slot mapping is baked in).
	Outs [][]int32

	shift     uint32 // log2(Width)
	pairShift uint32 // 2*shift, valid when Pair != nil
	start     uint32 // start state's row index
}

// alignedWords allocates n uint32s whose first element lies on a
// 64-byte cache-line boundary, so every table row (Width*4 >= 8 bytes,
// power of two) starts at a fixed line offset.
func alignedWords(n int) []uint32 {
	const line = 64
	buf := make([]uint32, n+line/4)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % line; rem != 0 {
		off = int(line-rem) / 4
	}
	return buf[off : off+n : off+n]
}

func log2(w int) uint32 {
	var s uint32
	for 1<<s < w {
		s++
	}
	return s
}

// compileTable flattens one slot DFA. byteClass is the reduction map;
// ids maps slot-local pattern ids to global ones; workers splits the
// dense row fill into contiguous state ranges (disjoint writes, so the
// emitted table is identical at any worker count).
func compileTable(d *dfa.DFA, byteClass [256]byte, ids []int, workers int) (*Table, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Out == nil {
		return nil, fmt.Errorf("kernel: DFA lacks output sets")
	}
	width := alphabet.RowWidth(d.Syms)
	shift := log2(width)
	n := d.NumStates()
	if uint64(n)<<shift >= 1<<31 {
		return nil, fmt.Errorf("kernel: %d states at width %d overflow row indexing", n, width)
	}
	// Every byte must map to a real symbol column: classes in
	// [Syms, width) would silently alias the reset-to-start padding,
	// dropping matches. True by construction for a healthy system;
	// guards against corrupted/loaded reductions.
	for b, c := range byteClass {
		if int(c) >= d.Syms {
			return nil, fmt.Errorf("kernel: byte %#x maps to class %d, alphabet %d", b, c, d.Syms)
		}
	}
	t := &Table{
		Classes:   d.Syms,
		Width:     width,
		States:    n,
		ByteClass: byteClass,
		Entries:   alignedWords(n * width),
		Outs:      make([][]int32, n),
		shift:     shift,
		start:     uint32(d.Start) << shift,
	}
	// flag[s] is FlagOut when state s reports matches, derived once from
	// Out so the row fill below ORs in a word instead of probing an
	// output set per entry.
	flag := make([]uint32, n)
	for s := 0; s < n; s++ {
		if len(d.Out[s]) > 0 {
			flag[s] = FlagOut
			out := make([]int32, len(d.Out[s]))
			for i, pid := range d.Out[s] {
				if pid < 0 || int(pid) >= len(ids) {
					// Healthy automata never hit this; guards loaded
					// artifacts whose output sets are corrupt.
					return nil, fmt.Errorf("kernel: state %d reports pattern %d of %d", s, pid, len(ids))
				}
				out[i] = int32(ids[pid])
			}
			t.Outs[s] = out
		}
	}
	fanout.ForRanges(n, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			row := t.Entries[s*width : (s+1)*width]
			for c, next := range d.Next[s*d.Syms : (s+1)*d.Syms] {
				row[c] = uint32(next)<<shift | flag[next]
			}
			for c := d.Syms; c < width; c++ {
				row[c] = t.start // padding columns restart, no flag
			}
		}
	})
	return t, nil
}

// SizeBytes is the dense table's memory footprint.
func (t *Table) SizeBytes() int { return t.States * t.Width * 4 }

// StartRow returns the start state's encoded row index, the carry
// value for ScanCarry.
func (t *Table) StartRow() uint32 { return t.start }

// emit keeps the output set of the state entry e transitioned into,
// unless the match ends inside the chunk's dedupe window: the matches
// are appended to sink with End = base + localEnd, or only counted
// when sink is nil. It returns how many it kept.
func (t *Table) emit(e uint32, localEnd, base, dedupe int, sink *[]dfa.Match) int {
	if localEnd <= dedupe {
		return 0
	}
	outs := t.Outs[e>>t.shift]
	if sink != nil {
		for _, pid := range outs {
			*sink = append(*sink, dfa.Match{Pattern: pid, End: base + localEnd})
		}
	}
	return len(outs)
}

// scanSerial runs the single-stream unrolled loop over raw bytes,
// keeping matches (see emit) with End = base + local offset and
// dropping those ending at local offsets <= dedupe (the overlap
// window). It returns the kept count.
func (t *Table) scanSerial(piece []byte, base, dedupe int, sink *[]dfa.Match) int {
	entries := t.Entries
	cls := &t.ByteClass
	cur := t.start
	kept := 0
	n := len(piece)
	i := 0
	for ; i+4 <= n; i += 4 {
		e := entries[cur+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			kept += t.emit(e, i+1, base, dedupe, sink)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+1]])]
		if e&FlagOut != 0 {
			kept += t.emit(e, i+2, base, dedupe, sink)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+2]])]
		if e&FlagOut != 0 {
			kept += t.emit(e, i+3, base, dedupe, sink)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+3]])]
		if e&FlagOut != 0 {
			kept += t.emit(e, i+4, base, dedupe, sink)
		}
		cur = e & rowMask
	}
	return kept + t.scanFrom(piece, i, cur, base, dedupe, sink)
}

// scanFrom continues a scan of piece at offset p from row cur to the
// end of piece, one byte per step: the tail of the serial loop and of
// each lane of scanLanes.
func (t *Table) scanFrom(piece []byte, p int, cur uint32, base, dedupe int, sink *[]dfa.Match) int {
	entries := t.Entries
	cls := &t.ByteClass
	kept := 0
	for ; p < len(piece); p++ {
		e := entries[cur+uint32(cls[piece[p]])]
		if e&FlagOut != 0 {
			kept += t.emit(e, p+1, base, dedupe, sink)
		}
		cur = e & rowMask
	}
	return kept
}

// ScanCarry scans piece from the encoded row cur (stream continuation:
// no speculative restart, no dedupe), calling emit for every hit with
// a 1-based piece-local end offset, and returns the final row. It is
// the kernel backend of core.Stream and of the sharded engine's
// sequential chunk-interleaved scan. Carried rows are always 1-byte
// encoded rows, even on the stride-2 rung (scanCarry2 converts at the
// boundaries), so stream state is representation-independent.
func (t *Table) ScanCarry(piece []byte, cur uint32, emit func(pid int32, end int)) uint32 {
	if t.Pair != nil {
		return t.scanCarry2(piece, cur, emit)
	}
	entries := t.Entries
	cls := &t.ByteClass
	cur &= rowMask
	n := len(piece)
	i := 0
	for ; i+4 <= n; i += 4 {
		e := entries[cur+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+1, emit)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+1]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+2, emit)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+2]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+3, emit)
		}
		cur = e & rowMask
		e = entries[cur+uint32(cls[piece[i+3]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+4, emit)
		}
		cur = e & rowMask
	}
	for ; i < n; i++ {
		e := entries[cur+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+1, emit)
		}
		cur = e & rowMask
	}
	return cur
}

// emitCarry reports the output set of the state entry e transitioned
// into (kept out of ScanCarry's hot loop).
func (t *Table) emitCarry(e uint32, end int, emit func(pid int32, end int)) {
	for _, pid := range t.Outs[e>>t.shift] {
		emit(pid, end)
	}
}

// laneCut is lane c's (base, dedupe) pair for scanLanes.
func laneCut(c interleave.Chunk, base, dedupe int) (int, int) {
	return base + c.Start, max(c.Overlap, dedupe-c.Start)
}

// scanLanes scans piece as the laneK lanes chunks splits it into, each
// from the root — the host form of the paper's Figure 6a multi-buffered
// streams: the lanes' dependent table loads are independent chains,
// so they are in flight together instead of stalling one after
// another. Lane l drops a match ending at lane offset
// <= max(Overlap, dedupe-Start): inside its overlap prefix the match
// belongs to lane l-1, and below dedupe the caller discards it anyway.
// Kept matches and the return value follow scanSerial, so the union
// over the lanes equals scanSerial(piece, base, dedupe).
//
// The lanes advance in lockstep over the shortest lane's length inside
// stepLanes, a call-free leaf that returns at the first byte where any
// lane's entry carries FlagOut; scanLanes emits the flagged lanes'
// matches out of line and resumes the leaf from the next byte. Then
// each lane drains its tail serially. With emit's append out of the
// leaf, the lane rows stay in registers between matches instead of on
// the stack (see the package comment).
func (t *Table) scanLanes(piece []byte, chunks []interleave.Chunk, base, dedupe int, sink *[]dfa.Match) int {
	var l lanes
	var lb, ld [laneK]int
	n := len(piece)
	for i, c := range chunks {
		lb[i], ld[i] = laneCut(c, base, dedupe)
		l.s[i] = t.start
		n = min(n, c.Len())
	}
	for i, c := range chunks {
		l.x[i] = piece[c.Start : c.Start+n]
	}
	kept := 0
	for p := stepLanes(t.Entries, &t.ByteClass, &l, 0); p < n; p = stepLanes(t.Entries, &t.ByteClass, &l, p+1) {
		for i, e := range l.s {
			if e&FlagOut != 0 {
				kept += t.emit(e, p+1, lb[i], ld[i], sink)
			}
		}
	}
	for i, c := range chunks {
		kept += t.scanFrom(piece[c.Start:c.End], n, l.s[i]&rowMask, lb[i], ld[i], sink)
	}
	return kept
}

// lanes is scanLanes' lane state across stepLanes calls: each lane's
// bytes, all cut to one length, and each lane's last entry
// (row | FlagOut).
type lanes struct {
	x [laneK][]byte
	s [laneK]uint32
}

// stepLanes is written out for exactly five lanes.
var _ = [1]int{}[laneK-5]

// stepLanes advances the five lanes of l in lockstep from byte p and
// returns the first offset at which any lane's entry carries FlagOut,
// with l.s holding the five entries of that byte, or len(l.x[0]) with
// l.s holding the final entries. It makes no call (bounds failures
// aside) and must stay that way: see scanLanes. It is never inlined,
// so its registers are its own and CI can disassemble it by name. At
// five lanes the compiler reloads a few loop-invariant words (lane
// byte pointers, the table base) from the stack each byte; those loads
// are off the lanes' dependent chains, and the five rows stay in
// registers.
//
//go:noinline
func stepLanes(entries []uint32, cls *[256]byte, l *lanes, p int) int {
	_ = cls[0] // one nil check here, none inside the loop
	x0 := l.x[0]
	x1, x2, x3, x4 := l.x[1][:len(x0)], l.x[2][:len(x0)], l.x[3][:len(x0)], l.x[4][:len(x0)]
	s0, s1, s2, s3, s4 := l.s[0]&rowMask, l.s[1]&rowMask, l.s[2]&rowMask, l.s[3]&rowMask, l.s[4]&rowMask
	for ; p < len(x0); p++ {
		e0 := entries[s0+uint32(cls[x0[p]])]
		e1 := entries[s1+uint32(cls[x1[p]])]
		e2 := entries[s2+uint32(cls[x2[p]])]
		e3 := entries[s3+uint32(cls[x3[p]])]
		e4 := entries[s4+uint32(cls[x4[p]])]
		if (e0|e1|e2|e3|e4)&FlagOut != 0 {
			l.s = [laneK]uint32{e0, e1, e2, e3, e4}
			return p
		}
		// No flag is set, so the entries are the bare rows.
		s0, s1, s2, s3, s4 = e0, e1, e2, e3, e4
	}
	l.s = [laneK]uint32{s0, s1, s2, s3, s4}
	return p
}

// Engine is a compiled matcher: one dense table per series slot plus
// the scan policy.
type Engine struct {
	// Tables holds one compiled table per series slot.
	Tables []*Table
	// MaxPatternLen sizes the lane overlap window.
	MaxPatternLen int

	opts   Options
	stride int // 2 when every table carries pair tables, else 1
}

// Stride reports the live transition stride: 2 when the pair tables
// are compiled in (the stride-2 rung), 1 for the plain dense kernel.
func (e *Engine) Stride() int {
	if e.stride == 2 {
		return 2
	}
	return 1
}

// PairBytes is the aggregate pair-table footprint (0 at stride 1).
func (e *Engine) PairBytes() int {
	total := 0
	for _, t := range e.Tables {
		total += t.PairSizeBytes()
	}
	return total
}

// Compile flattens a composed system into a dense engine. It returns
// ErrBudget (wrapped) when the aggregate table size exceeds
// Options.MaxTableBytes; callers are expected to fall back to the
// stt/dfa scan path. Per Options.Stride the engine additionally
// compiles the stride-2 pair tables; a pair set that cannot fit the
// remaining budget degrades to the plain 1-byte kernel rather than
// failing (the rung below on the selection ladder).
func Compile(sys *compose.System, opts Options) (*Engine, error) {
	return CompileReusing(sys, opts, nil)
}

// CompileReusing is Compile with per-slot table reuse for the delta
// path: prebuilt[i], when non-nil, is a table already compiled for slot
// i with the same reduction and the same global pattern ids (the caller
// establishes that by content fingerprint), adopted instead of
// recompiled. Reused tables are never mutated — if the stride decision
// differs from the donor engine's, the table is shallow-copied and its
// pair table built or dropped on the copy — so the donor engine keeps
// scanning unchanged and the result is byte-identical to a cold
// Compile of the same system.
func CompileReusing(sys *compose.System, opts Options, prebuilt []*Table) (*Engine, error) {
	o := opts.withDefaults()
	if o.Stride < 0 || o.Stride > 2 {
		return nil, fmt.Errorf("kernel: bad stride %d (want 0 auto, 1, or 2)", o.Stride)
	}
	if len(sys.Slots) == 0 {
		return nil, fmt.Errorf("kernel: system has no slots")
	}
	// Budget first, from predicted sizes (states × row width × 4 — the
	// exact arithmetic the tables compile to): an over-budget dictionary
	// is rejected before any table is emitted, so the doomed kernel
	// attempt on a sharded- or stt-bound dictionary costs a size sum,
	// not a full table build.
	total := 0
	for _, d := range sys.Slots {
		total += d.NumStates() * alphabet.RowWidth(d.Syms) * 4
		if total > o.MaxTableBytes {
			return nil, fmt.Errorf("%w: %d slots need > %d bytes", ErrBudget, len(sys.Slots), o.MaxTableBytes)
		}
	}
	e := &Engine{MaxPatternLen: sys.MaxPatternLen, opts: o, stride: 1}
	e.Tables = make([]*Table, len(sys.Slots))
	inner := 1
	if w := fanout.Workers(o.Workers); len(sys.Slots) < w {
		inner = (w + len(sys.Slots) - 1) / len(sys.Slots)
	}
	err := fanout.ForEachErr(len(sys.Slots), o.Workers, func(i int) error {
		if prebuilt != nil && prebuilt[i] != nil {
			e.Tables[i] = prebuilt[i]
			return nil
		}
		t, err := compileTable(sys.Slots[i], sys.Red.Map, sys.SlotPatterns[i], inner)
		if err != nil {
			return err
		}
		e.Tables[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	wantPair := o.Stride != 1 && e.pairEligible(o, total)
	if wantPair {
		e.stride = 2
	}
	fanout.ForEach(len(e.Tables), o.Workers, func(i int) {
		e.Tables[i] = e.Tables[i].withPair(wantPair, inner)
	})
	return e, nil
}

// pairEligible decides whether the stride-2 pair tables come up:
// every slot's pair row indexing must fit and the aggregate dense +
// pair footprint must stay within the byte budget. The auto policy
// (Stride 0) additionally requires every slot within
// AutoStride2MaxClasses classes AND the aggregate pair table
// L2-resident (<= L2Budget): a pair load is on the scan's serial
// dependency chain, so a pair table that spills past L2 trades one
// L1-speed load per byte for one slower load per pair and measures
// at or below the 1-byte kernel — the measured NIDS-dictionary
// regime (6 MiB pair table, 0.97x). An explicit Stride 2 skips both
// auto gates and builds whatever fits MaxTableBytes. denseTotal is
// the already-accumulated dense footprint.
//
// Ladder-footprint rule: every rung admits itself by comparing its
// AGGREGATE resident footprint against the budget resolved by
// ResolveMaxTableBytes — stride-2 charges dense + pair here, the
// dense kernel charges states × width × 4 in CompileReusing, the
// compressed tier charges bitmaps + defaults + offsets + explicit in
// CompileCompressed (auto-capped at L2Budget by the core ladder), and
// the sharded planner charges per-shard dense tables. Each rung's
// predicate is monotone in the budget and the rungs are tried
// fastest-first, so growing the budget can only move selection up the
// ladder, never down — the property TestLadderMonotonicity pins.
func (e *Engine) pairEligible(o Options, denseTotal int) bool {
	pairTotal := 0
	for _, t := range e.Tables {
		if !t.pairFits() {
			return false
		}
		if o.Stride == 0 && t.Classes > AutoStride2MaxClasses {
			return false
		}
		pairTotal += t.States * t.Width * t.Width * 4
	}
	if o.Stride == 0 && pairTotal > L2Budget {
		return false
	}
	return denseTotal+pairTotal <= o.MaxTableBytes
}

// TableBytes is the aggregate dense-table footprint.
func (e *Engine) TableBytes() int {
	total := 0
	for _, t := range e.Tables {
		total += t.SizeBytes()
	}
	return total
}

// InterleaveFor reports the lane count, 1 or 5, that the 1-byte loops
// use on an input or piece of n bytes — FindAll, Count and ScanChunk
// at stride 1 and on the stride-2 rung's 1-byte view (diagnostics and
// tests).
func (e *Engine) InterleaveFor(n int) int { return chooseK(e.opts.InterleaveK, n, e.overlap()) }

// chooseK is the one lane rule of the dense 1-byte loops, at every
// entry point — pooled chunks included. InterleaveK 1 pins the serial
// loop at any length. Otherwise a piece scans as laneK lanes once it is
// at least laneMinBytes long and at least laneK*laneK times the
// overlap, so the four overlap re-scans add under a fifth to the work;
// shorter pieces take the serial loop.
func chooseK(interleaveK, n, overlap int) int {
	if interleaveK == 1 || n < laneMinBytes || n < laneK*laneK*overlap {
		return 1
	}
	return laneK
}

func (e *Engine) overlap() int {
	if e.MaxPatternLen > 0 {
		return e.MaxPatternLen - 1
	}
	return 0
}

// FindAll scans raw data and returns every dictionary occurrence with
// global pattern ids, sorted by (End, Pattern) — byte-for-byte the
// output of compose.System.Scan.
func (e *Engine) FindAll(data []byte) []dfa.Match {
	out := e.ScanChunk(data, 0, 0)
	dfa.SortMatches(out)
	return out
}

// scan1 runs every table's 1-byte loop over piece from the root —
// scanLanes when k is laneK, the serial loop otherwise — keeping matches as
// scanSerial does, and returns the kept count. It is the one loop
// behind FindAll, Count and ScanChunk at stride 1.
func (e *Engine) scan1(piece []byte, base, dedupe, k int, sink *[]dfa.Match) int {
	kept := 0
	if k != laneK {
		for _, t := range e.Tables {
			kept += t.scanSerial(piece, base, dedupe, sink)
		}
		return kept
	}
	chunks, err := interleave.SplitWithOverlap(len(piece), laneK, e.overlap())
	if err != nil { // unreachable: laneK >= 1, n >= 0, overlap >= 0
		panic(err)
	}
	for _, t := range e.Tables {
		kept += t.scanLanes(piece, chunks, base, dedupe, sink)
	}
	return kept
}

// Count returns the total occurrence count without materializing the
// match list — the packet-discard path: same loops, a counter instead
// of a sink, no allocation and no sort.
func (e *Engine) Count(data []byte) int {
	if e.stride != 2 {
		return e.scan1(data, 0, 0, e.InterleaveFor(len(data)), nil)
	}
	total := 0
	for _, t := range e.Tables {
		total += t.countSerial2(data)
	}
	return total
}

// ScanChunk scans one raw piece from the root for the parallel engine:
// matches ending at local offsets <= dedupe are dropped (overlap
// duplicates), the rest are shifted by base. At stride 1 the piece
// scans as lanes under the chooseK rule, like FindAll; the stride-2
// rung keeps its serial pair loop. Output order is unspecified; the
// caller merges and sorts.
func (e *Engine) ScanChunk(piece []byte, base, dedupe int) []dfa.Match {
	var out []dfa.Match
	if e.stride != 2 {
		e.scan1(piece, base, dedupe, e.InterleaveFor(len(piece)), &out)
		return out
	}
	for _, t := range e.Tables {
		t.scanSerial2(piece, base, dedupe, &out)
	}
	return out
}

var _ Verifier = (*Engine)(nil)

// Name reports the rung: "stride2" with the pair tables live, else
// "kernel".
func (e *Engine) Name() string {
	if e.stride == 2 {
		return "stride2"
	}
	return "kernel"
}

// Units is 1: one engine scans every slot in one work item.
func (e *Engine) Units() int { return 1 }

// ScanUnit is ScanChunk (the engine has a single unit).
func (e *Engine) ScanUnit(_ int, piece []byte, base, dedupe int) []dfa.Match {
	return e.ScanChunk(piece, base, dedupe)
}

// CarryTables returns the per-slot tables as carry scanners.
func (e *Engine) CarryTables() []CarryScanner { return carryScanners(e.Tables) }

// Footprint reports the dense tables, plus the pair tables on the
// stride-2 rung; both make up the resident working set there.
func (e *Engine) Footprint() Footprint {
	fp := Footprint{KernelTableBytes: e.TableBytes(), Slots: len(e.Tables)}
	if e.stride == 2 {
		fp.PairTableBytes = e.PairBytes()
	}
	fp.Resident = fp.KernelTableBytes + fp.PairTableBytes
	return fp
}

// Image serialization -------------------------------------------------
//
// Layout (little-endian):
//
//	magic "CMKRN1\x00"
//	u32 classes, width, states, startState
//	byteClass [256]u8
//	entries states*width x u32
//	outs: per state: u32 count, count x u32 pattern ids

var imgMagic = []byte("CMKRN1\x00")

// Bytes serializes the table to its kernel image.
func (t *Table) Bytes() []byte {
	size := len(imgMagic) + 4*4 + 256 + len(t.Entries)*4
	for _, o := range t.Outs {
		size += 4 + len(o)*4
	}
	out := make([]byte, 0, size)
	out = append(out, imgMagic...)
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(t.Classes))
	out = le.AppendUint32(out, uint32(t.Width))
	out = le.AppendUint32(out, uint32(t.States))
	out = le.AppendUint32(out, t.start>>t.shift)
	out = append(out, t.ByteClass[:]...)
	for _, e := range t.Entries {
		out = le.AppendUint32(out, e)
	}
	for _, o := range t.Outs {
		out = le.AppendUint32(out, uint32(len(o)))
		for _, pid := range o {
			out = le.AppendUint32(out, uint32(pid))
		}
	}
	return out
}

// FromBytes reconstructs and validates a table image, re-aligning the
// entry array. A loaded table scans identically to the compiled one.
func FromBytes(img []byte) (*Table, error) {
	if len(img) < len(imgMagic)+4*4+256 || string(img[:len(imgMagic)]) != string(imgMagic) {
		return nil, fmt.Errorf("kernel: not a kernel image")
	}
	le := binary.LittleEndian
	p := len(imgMagic)
	get := func() uint32 {
		v := le.Uint32(img[p:])
		p += 4
		return v
	}
	classes, width, states, start := int(get()), int(get()), int(get()), get()
	if classes < 1 || classes > 256 || width < classes || width&(width-1) != 0 || width < 2 {
		return nil, fmt.Errorf("kernel: bad geometry classes=%d width=%d", classes, width)
	}
	if states < 1 || uint64(states)*uint64(width) > 1<<28 {
		return nil, fmt.Errorf("kernel: implausible state count %d", states)
	}
	if int(start) >= states {
		return nil, fmt.Errorf("kernel: start state %d out of range", start)
	}
	t := &Table{
		Classes: classes,
		Width:   width,
		States:  states,
		Outs:    make([][]int32, states),
		shift:   log2(width),
	}
	t.start = start << t.shift
	if len(img) < p+256+states*width*4 {
		return nil, fmt.Errorf("kernel: truncated image")
	}
	copy(t.ByteClass[:], img[p:p+256])
	p += 256
	for _, c := range t.ByteClass {
		if int(c) >= classes {
			return nil, fmt.Errorf("kernel: byte class %d >= %d", c, classes)
		}
	}
	t.Entries = alignedWords(states * width)
	for i := range t.Entries {
		t.Entries[i] = get()
	}
	for s := 0; s < states; s++ {
		if len(img) < p+4 {
			return nil, fmt.Errorf("kernel: truncated output sets")
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
	return t, nil
}

// Validate checks structural invariants: every entry targets a real
// row with clean padding bits, and its flag agrees with the
// destination's output set.
func (t *Table) Validate() error {
	for i, e := range t.Entries {
		dest := e >> t.shift
		if int(dest) >= t.States {
			return fmt.Errorf("kernel: entry %d targets state %d of %d", i, dest, t.States)
		}
		if e&rowMask != dest<<t.shift {
			return fmt.Errorf("kernel: entry %d has dirty padding bits: %#x", i, e)
		}
		if col := i % t.Width; col < t.Classes {
			if flagged, hasOut := e&FlagOut != 0, len(t.Outs[dest]) > 0; flagged != hasOut {
				return fmt.Errorf("kernel: entry %d flag %v but |out|=%d", i, flagged, len(t.Outs[dest]))
			}
		} else if e&FlagOut != 0 {
			return fmt.Errorf("kernel: padding entry %d carries a flag", i)
		}
	}
	return t.validatePair()
}
