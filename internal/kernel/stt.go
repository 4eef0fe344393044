package kernel

import (
	"sync"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
)

// STT is the ladder's bottom rung: the alphabet-reduce + dfa lookup
// path over a composed system's slot automata, serving dictionaries no
// table rung can hold (or every dictionary under DisableKernel). It
// meets the Verifier contract like the table rungs, so callers never
// special-case it: each scan reduces the piece into pooled scratch and
// runs every slot's automaton from its start state.
type STT struct {
	sys *compose.System
}

var _ Verifier = (*STT)(nil)

// NewSTT wraps a composed system as a verifier.
func NewSTT(sys *compose.System) *STT { return &STT{sys: sys} }

// Name reports the rung.
func (s *STT) Name() string { return "stt" }

// Stride is 0: the stt path has no kernel transition stride.
func (s *STT) Stride() int { return 0 }

// Units is 1: every slot scans in one work item.
func (s *STT) Units() int { return 1 }

// Footprint reports only the slot count: the stt path has no kernel
// tables.
func (s *STT) Footprint() Footprint { return Footprint{Slots: len(s.sys.Slots)} }

// FindAll scans data as one piece, sorted by (End, Pattern) — the
// output of compose.System.Scan, whose tile-group split reconciles to
// the same match set.
func (s *STT) FindAll(data []byte) []dfa.Match {
	out := s.ScanUnit(0, data, 0, 0)
	dfa.SortMatches(out)
	return out
}

// Count returns the occurrence count.
func (s *STT) Count(data []byte) int { return len(s.ScanUnit(0, data, 0, 0)) }

// ScanUnit runs every series slot over the reduced piece from the root
// state, reusing the dfa.FindAll the sequential path is built on.
func (s *STT) ScanUnit(_ int, piece []byte, base, dedupe int) []dfa.Match {
	scratch := getScratch(len(piece))
	defer scratchPool.Put(scratch)
	s.sys.Red.Apply(*scratch, piece)
	var out []dfa.Match
	for slot, d := range s.sys.Slots {
		ids := s.sys.SlotPatterns[slot]
		for _, m := range d.FindAll(*scratch) {
			if m.End <= dedupe {
				continue // ends inside the reconciliation window
			}
			out = append(out, dfa.Match{Pattern: int32(ids[m.Pattern]), End: base + m.End})
		}
	}
	return out
}

// CarryTables returns one DFA-state carry scanner per series slot.
func (s *STT) CarryTables() []CarryScanner {
	out := make([]CarryScanner, len(s.sys.Slots))
	for i, d := range s.sys.Slots {
		out[i] = &sttCarry{d: d, byteClass: &s.sys.Red.Map, ids: s.sys.SlotPatterns[i]}
	}
	return out
}

// sttCarry is one slot automaton under the CarryScanner contract: the
// carried value is the DFA state number, and bytes are reduced through
// the alphabet map as they are stepped.
type sttCarry struct {
	d         *dfa.DFA
	byteClass *[256]byte
	ids       []int
}

func (c *sttCarry) StartRow() uint32 { return uint32(c.d.Start) }

func (c *sttCarry) ScanCarry(piece []byte, cur uint32, emit func(pid int32, end int)) uint32 {
	state := int(cur)
	for pos, b := range piece {
		state = c.d.Step(state, c.byteClass[b])
		for _, pid := range c.d.Out[state] {
			emit(int32(c.ids[pid]), pos+1)
		}
	}
	return uint32(state)
}

// scratchPool recycles reduction buffers across stt scans (the table
// rungs scan raw bytes and need none). Pointer-to-slice entries keep
// Put allocation-free (staticcheck SA6002).
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}
