// Stride-2 scan rung: the kernel's answer to the load-to-use wall.
//
// The dense 1-byte loop issues one dependent table load per input
// byte, so its throughput is capped by the table's hit latency divided
// by one — the lane loop hides some of it, but every lane still pays
// a full load per byte. Processing two symbols per transition halves the
// depth of the dependency chain: a pair table maps
// (state, class1, class2) -> next state in ONE load, so the serial
// chain costs one L1/L2 hit per TWO bytes (Bille's packed-string
// matching and Faro & Külekci's packed short-pattern matchers use the
// same trade: table footprint for fewer dependent loads).
//
// Geometry. The pair table reuses the 1-byte table's power-of-two row
// width W (>= Classes): a pair row holds W*W entries and the pair
// column index of bytes (b1, b2) is (class(b1) << log2(W)) | class(b2)
// — two independent byte-class loads, a shift and an OR, all off the
// critical path. A pair entry is the destination state's PAIR row
// index (state << 2*log2(W)) with the same FlagOut convention in bit
// 0. Pair rows are multiples of W*W >= 4, so the flag bit (and bit 1)
// are always free.
//
// Outputs. A dictionary hit can end on either byte of the pair: after
// consuming class1 (the intermediate state) or after consuming class2
// (the destination). The pair entry squashes both into one flag —
// FlagOut is set when EITHER state has a non-empty output set — and
// the rare flagged iteration replays the two bytes through the 1-byte
// table (the epilogue/verify step) to recover exactly which positions
// emit and what. The hot loop therefore stays two loads + mask per
// pair, and emitted (End, Pattern) output is byte-identical to the
// 1-byte loops, including matches ending on odd offsets.
//
// Odd lengths and cuts. A piece with an odd byte count finishes with
// one 1-byte step (the tail epilogue); a stream cut at any parity is
// safe because carried state is a DFA state, not a parity — each
// chunk re-pairs its own bytes from offset 0. The exhaustive split
// and stream-cut matrixes in stride2 tests pin this down.
//
// Budget. Pair tables cost States * W^2 * 4 bytes ON TOP of the dense
// 1-byte tables (the epilogue and the odd-tail step need them), and
// the sum must fit Options.MaxTableBytes. Over-budget dictionaries
// fall back to the plain 1-byte kernel automatically — the selection
// ladder is filter -> stride-2 -> dense kernel -> sharded -> stt.
package kernel

import (
	"fmt"

	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
)

// AutoStride2MaxClasses gates the auto stride policy: beyond 64
// reduced classes a pair row is at least 64 KiB and the pair table
// rarely earns its cache footprint, so auto keeps the 1-byte loop and
// only an explicit Stride=2 builds pairs (budget permitting).
const AutoStride2MaxClasses = 64

// OneByte returns v's 1-byte view: on the stride-2 rung an engine that
// shares v's tables but scans with the 1-byte loops (the per-request
// stride=1 opt-out), on every other rung v itself. Output is
// byte-identical either way.
func OneByte(v Verifier) Verifier {
	e, ok := v.(*Engine)
	if !ok || e.stride != 2 {
		return v
	}
	view := *e
	view.stride = 1
	return &view
}

// pairRow converts an encoded 1-byte row index to the same state's
// pair row index.
func (t *Table) pairRow(row uint32) uint32 {
	return (row >> t.shift) << t.pairShift
}

// byteRow converts an encoded pair row index back to the 1-byte row.
func (t *Table) byteRow(prow uint32) uint32 {
	return (prow >> t.pairShift) << t.shift
}

// PairSizeBytes is the pair table's memory footprint (0 when the
// stride-2 rung is not compiled in).
func (t *Table) PairSizeBytes() int { return len(t.Pair) * 4 }

// pairFits reports whether this table's pair geometry is even
// addressable: the pair row index of the last state, plus a full row,
// must stay clear of the uint32 flag bits.
func (t *Table) pairFits() bool {
	pairShift := 2 * t.shift
	return uint64(t.States)<<pairShift < 1<<31
}

// buildPair derives the pair table from the dense 1-byte table: entry
// (s, c1, c2) composes the two 1-byte transitions and squashes their
// output flags. Deriving from Entries (not the DFA) means a table
// loaded from its serialized image can build pairs identically.
// Padding cells (either class >= Classes) reset to the start state
// with no flag, like the 1-byte padding columns; they are unreachable
// because the byte-class map only yields real classes. The per-state
// emission splits into contiguous state ranges across workers (fanout
// semantics); pair rows are disjoint per state and derived from the
// immutable 1-byte entries, so the table is identical at any worker
// count.
func (t *Table) buildPair(workers int) {
	pairShift := 2 * t.shift
	pw := t.Width * t.Width
	pair := alignedWords(t.States * pw)
	startPair := (t.start >> t.shift) << pairShift
	fanout.ForRanges(t.States, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			row := uint32(s) << t.shift
			prow := uint32(s) << pairShift
			for c1 := 0; c1 < t.Width; c1++ {
				e1 := t.Entries[row+uint32(c1)]
				midRow := e1 & rowMask
				for c2 := 0; c2 < t.Width; c2++ {
					idx := prow + uint32(c1)<<t.shift + uint32(c2)
					if c1 >= t.Classes || c2 >= t.Classes {
						pair[idx] = startPair
						continue
					}
					e2 := t.Entries[midRow+uint32(c2)]
					pe := ((e2 & rowMask) >> t.shift) << pairShift
					if (e1|e2)&FlagOut != 0 {
						pe |= FlagOut
					}
					pair[idx] = pe
				}
			}
		}
	})
	t.Pair = pair
	t.pairShift = pairShift
}

// withPair returns a view of the table whose pair-table presence
// matches want, never mutating the receiver: a table that already
// agrees is returned as-is; otherwise a shallow copy (sharing the
// immutable Entries and Outs) gains or drops its pair table. This is
// how the delta path adopts tables from a donor engine whose stride
// decision differed — the donor keeps scanning unchanged.
func (t *Table) withPair(want bool, workers int) *Table {
	if (t.Pair != nil) == want {
		return t
	}
	c := *t
	c.Pair = nil
	c.pairShift = 0
	if want {
		c.buildPair(workers)
	}
	return &c
}

// emitPair is the flagged-iteration epilogue: replay bytes b1, b2 from
// the state owning pair row prow through the 1-byte table, emitting
// the output sets the squashed flag stood for. i is the piece-local
// offset of b1.
func (t *Table) emitPair(prow uint32, b1, b2 byte, i, base, dedupe int, sink *[]dfa.Match) {
	row := t.byteRow(prow)
	e1 := t.Entries[row+uint32(t.ByteClass[b1])]
	if e1&FlagOut != 0 {
		t.emit(e1, i+1, base, dedupe, sink)
	}
	e2 := t.Entries[(e1&rowMask)+uint32(t.ByteClass[b2])]
	if e2&FlagOut != 0 {
		t.emit(e2, i+2, base, dedupe, sink)
	}
}

// scanSerial2 is the single-stream stride-2 loop: one pair-table load
// per two input bytes, the squashed flag branching to the epilogue,
// and a final 1-byte step for odd lengths. Matches ending at local
// offsets <= dedupe are dropped, exactly like scanSerial.
func (t *Table) scanSerial2(piece []byte, base, dedupe int, sink *[]dfa.Match) {
	pair := t.Pair
	cls := &t.ByteClass
	shift := t.shift
	cur := t.pairRow(t.start)
	n := len(piece)
	i := 0
	for ; i+4 <= n; i += 4 {
		e := pair[cur+(uint32(cls[piece[i]])<<shift|uint32(cls[piece[i+1]]))]
		if e&FlagOut != 0 {
			t.emitPair(cur, piece[i], piece[i+1], i, base, dedupe, sink)
		}
		cur = e & rowMask
		e = pair[cur+(uint32(cls[piece[i+2]])<<shift|uint32(cls[piece[i+3]]))]
		if e&FlagOut != 0 {
			t.emitPair(cur, piece[i+2], piece[i+3], i+2, base, dedupe, sink)
		}
		cur = e & rowMask
	}
	for ; i+2 <= n; i += 2 {
		e := pair[cur+(uint32(cls[piece[i]])<<shift|uint32(cls[piece[i+1]]))]
		if e&FlagOut != 0 {
			t.emitPair(cur, piece[i], piece[i+1], i, base, dedupe, sink)
		}
		cur = e & rowMask
	}
	if i < n {
		e := t.Entries[t.byteRow(cur)+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			t.emit(e, i+1, base, dedupe, sink)
		}
	}
}

// scanCarry2 is ScanCarry on the stride-2 rung: same carry contract
// (1-byte encoded rows in and out, so stream state is representation-
// independent), pair-table steps inside. An odd trailing byte takes
// one 1-byte step; chunk parity never leaks into the carried state.
func (t *Table) scanCarry2(piece []byte, cur uint32, emit func(pid int32, end int)) uint32 {
	pair := t.Pair
	cls := &t.ByteClass
	shift := t.shift
	pcur := t.pairRow(cur & rowMask)
	n := len(piece)
	i := 0
	for ; i+2 <= n; i += 2 {
		e := pair[pcur+(uint32(cls[piece[i]])<<shift|uint32(cls[piece[i+1]]))]
		if e&FlagOut != 0 {
			t.emitPairCarry(pcur, piece[i], piece[i+1], i, emit)
		}
		pcur = e & rowMask
	}
	row := t.byteRow(pcur)
	if i < n {
		e := t.Entries[row+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			t.emitCarry(e, i+1, emit)
		}
		row = e & rowMask
	}
	return row
}

// emitPairCarry is emitPair for the carry (stream) path: offsets are
// 1-based piece-local ends, no dedupe window.
func (t *Table) emitPairCarry(prow uint32, b1, b2 byte, i int, emit func(pid int32, end int)) {
	row := t.byteRow(prow)
	e1 := t.Entries[row+uint32(t.ByteClass[b1])]
	if e1&FlagOut != 0 {
		t.emitCarry(e1, i+1, emit)
	}
	e2 := t.Entries[(e1&rowMask)+uint32(t.ByteClass[b2])]
	if e2&FlagOut != 0 {
		t.emitCarry(e2, i+2, emit)
	}
}

// countSerial2 counts hits at stride 2: the flagged epilogue counts
// output-set sizes instead of materializing matches.
func (t *Table) countSerial2(piece []byte) int {
	pair := t.Pair
	cls := &t.ByteClass
	shift := t.shift
	cur := t.pairRow(t.start)
	n := len(piece)
	count := 0
	i := 0
	for ; i+2 <= n; i += 2 {
		e := pair[cur+(uint32(cls[piece[i]])<<shift|uint32(cls[piece[i+1]]))]
		if e&FlagOut != 0 {
			count += t.countPair(cur, piece[i], piece[i+1])
		}
		cur = e & rowMask
	}
	if i < n {
		e := t.Entries[t.byteRow(cur)+uint32(cls[piece[i]])]
		if e&FlagOut != 0 {
			count += len(t.Outs[e>>t.shift])
		}
	}
	return count
}

// countPair is the counting epilogue: replay the pair on the 1-byte
// table and sum the output sets of the states it passes through.
func (t *Table) countPair(prow uint32, b1, b2 byte) int {
	row := t.byteRow(prow)
	count := 0
	e1 := t.Entries[row+uint32(t.ByteClass[b1])]
	if e1&FlagOut != 0 {
		count += len(t.Outs[e1>>t.shift])
	}
	e2 := t.Entries[(e1&rowMask)+uint32(t.ByteClass[b2])]
	if e2&FlagOut != 0 {
		count += len(t.Outs[e2>>t.shift])
	}
	return count
}

// validatePair checks the pair table's structural invariants against
// the 1-byte table it was derived from: every entry must equal the
// composition of the two 1-byte transitions, with the flag equal to
// the OR of their flags, and padding cells must reset cleanly.
func (t *Table) validatePair() error {
	if t.Pair == nil {
		return nil
	}
	pw := t.Width * t.Width
	if len(t.Pair) != t.States*pw {
		return fmt.Errorf("kernel: pair table has %d entries, want %d", len(t.Pair), t.States*pw)
	}
	for s := 0; s < t.States; s++ {
		row := uint32(s) << t.shift
		prow := uint32(s) << t.pairShift
		for c1 := 0; c1 < t.Width; c1++ {
			e1 := t.Entries[row+uint32(c1)]
			for c2 := 0; c2 < t.Width; c2++ {
				got := t.Pair[prow+uint32(c1)<<t.shift+uint32(c2)]
				if c1 >= t.Classes || c2 >= t.Classes {
					if got != t.pairRow(t.start) {
						return fmt.Errorf("kernel: pair padding (%d,%d,%d) = %#x", s, c1, c2, got)
					}
					continue
				}
				e2 := t.Entries[(e1&rowMask)+uint32(c2)]
				want := ((e2 & rowMask) >> t.shift) << t.pairShift
				if (e1|e2)&FlagOut != 0 {
					want |= FlagOut
				}
				if got != want {
					return fmt.Errorf("kernel: pair entry (%d,%d,%d) = %#x, want %#x", s, c1, c2, got, want)
				}
			}
		}
	}
	return nil
}
