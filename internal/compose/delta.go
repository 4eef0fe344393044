// Incremental system composition: rebuild only the slots a dictionary
// edit actually touched. The partitioner is deterministic, so the new
// group list can be computed cheaply (with an append-only fast path
// that reuses the previous boundaries outright) and each new group's
// automaton reused from the previous system whenever its content
// fingerprint matches — a slot DFA depends only on the reduction and
// the ordered pattern bytes of its group, never on global ids. Reused
// units are the previous build's immutable values, and rebuilt units
// run the same construction a cold build would, so the delta-composed
// system is bit-identical to NewSystem on the new dictionary.
package compose

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
	"cellmatch/internal/fanout"
)

// fpSize is the slot fingerprint width. SHA-256 keeps accidental
// collisions out of the question: a collision would silently reuse the
// wrong automaton.
const fpSize = sha256.Size

// slotFingerprint hashes one group's ordered pattern content: per
// pattern, its length (uvarint, so concatenation ambiguity is
// impossible) then its bytes. The reduction is deliberately excluded —
// the delta path only compares fingerprints after establishing the
// reductions are equal.
func slotFingerprint(patterns [][]byte, ids []int) [fpSize]byte {
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, id := range ids {
		p := patterns[id]
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write(p)
	}
	var fp [fpSize]byte
	h.Sum(fp[:0])
	return fp
}

// slotFingerprints returns (computing and caching on first use) the
// per-slot content fingerprints of a system built from the given global
// pattern list.
func (s *System) slotFingerprints(patterns [][]byte, workers int) [][fpSize]byte {
	if s.slotFP != nil {
		return s.slotFP
	}
	fps := make([][fpSize]byte, len(s.SlotPatterns))
	fanout.ForEach(len(s.SlotPatterns), workers, func(i int) {
		fps[i] = slotFingerprint(patterns, s.SlotPatterns[i])
	})
	s.slotFP = fps
	return fps
}

// partitionDelta computes the new dictionary's group list, taking the
// append-only fast path when the previous dictionary is a strict prefix
// of the new one (grown): groups before the last previous group cannot
// change (the greedy packer's state at each boundary depends only on
// earlier patterns, which are byte-identical), so only the tail from
// the start of the last previous group is re-packed. Any other edit
// re-runs the full partitioner — still cheap next to automaton
// construction.
func partitionDelta(patterns [][]byte, red *alphabet.Reduction, maxStates int, prev *System, grown bool) ([][]int, error) {
	if grown {
		last := len(prev.SlotPatterns) - 1
		resume := prev.SlotPatterns[last][0]
		groups := make([][]int, last, last+1)
		copy(groups, prev.SlotPatterns[:last])
		tail, _, err := partitionFrom(patterns, red, maxStates, resume)
		if err != nil {
			return nil, err
		}
		return append(groups, tail...), nil
	}
	return Partition(patterns, red, maxStates)
}

// isPrefix reports whether every old pattern equals the new pattern at
// the same index — a byte compare, far cheaper than re-walking tries.
func isPrefix(old, new [][]byte) bool {
	for i, p := range old {
		if !bytes.Equal(p, new[i]) {
			return false
		}
	}
	return true
}

// NewSystemDelta composes a system for the new dictionary, reusing
// every slot automaton of prev (built from prevPatterns, with the same
// cfg) whose group content is unchanged. It returns the system plus a
// per-slot reuse mask (diagnostics and delta accounting). The result is
// bit-identical to NewSystem(patterns, cfg); when the new reduction
// differs from prev's (an edit introduced or retired a byte class,
// re-numbering every slot's symbols) nothing is reusable and the cold
// path runs. A dictionary that composes as one host slot (see
// Config.HostTableBytes) has nothing to reuse either: its one
// automaton is rebuilt, with no partition or fingerprint pass.
func NewSystemDelta(patterns [][]byte, cfg Config, prev *System, prevPatterns [][]byte) (*System, []bool, error) {
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	red, err := alphabet.ForDictionary(patterns, cfg.CaseFold)
	if err != nil {
		return nil, nil, err
	}
	cold := func() (*System, []bool, error) {
		s, err := newSystem(patterns, red, cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, make([]bool, len(s.Slots)), nil
	}
	if prev == nil || prev.Red == nil || len(prev.Slots) == 0 || *red != *prev.Red {
		return cold()
	}
	width, maxStates, err := tileGeometry(red, cfg.MaxStatesPerTile)
	if err != nil {
		return nil, nil, err
	}
	grown := len(patterns) > len(prevPatterns) && isPrefix(prevPatterns, patterns)
	hostCap := cfg.hostStates(red)
	// The trie of a grown dictionary contains prev's, so a cap prev's
	// trie passed is passed again: go straight to the tiles.
	if hostCap > 0 && !(grown && prev.overCap == hostCap) {
		s, err := newOneSlot(patterns, red, width, maxStates, hostCap, cfg)
		if !errors.Is(err, dfa.ErrStateCap) {
			if err != nil {
				return nil, nil, err
			}
			return s, []bool{false}, nil
		}
	}
	if prev.oversized(maxStates) {
		// prev is one host slot: no tile of it can be reused.
		s, err := newTiled(patterns, red, width, maxStates, cfg)
		if err != nil {
			return nil, nil, err
		}
		s.overCap = hostCap
		return s, make([]bool, len(s.Slots)), nil
	}
	groups, err := partitionDelta(patterns, red, maxStates, prev, grown)
	if err != nil {
		return nil, nil, err
	}
	topo := Mixed(cfg.Groups, len(groups))
	if err := topo.Validate(cfg.MaxSPEs); err != nil {
		return nil, nil, err
	}

	prevFPs := prev.slotFingerprints(prevPatterns, cfg.Workers)
	prevBySlot := make(map[[fpSize]byte]int, len(prevFPs))
	for i, fp := range prevFPs {
		if _, dup := prevBySlot[fp]; !dup {
			prevBySlot[fp] = i
		}
	}
	newFPs := make([][fpSize]byte, len(groups))
	fanout.ForEach(len(groups), cfg.Workers, func(i int) {
		newFPs[i] = slotFingerprint(patterns, groups[i])
	})

	s := &System{Topology: topo, Red: red, Width: width, SlotPatterns: groups, slotFP: newFPs, overCap: hostCap}
	reuseSlots := make([]*dfa.DFA, len(groups))
	reused := make([]bool, len(groups))
	for i, fp := range newFPs {
		if j, ok := prevBySlot[fp]; ok {
			reuseSlots[i] = prev.Slots[j]
			reused[i] = true
		}
	}
	if err := s.buildSlots(patterns, groups, reuseSlots, maxStates, cfg.Workers); err != nil {
		return nil, nil, err
	}
	return s, reused, nil
}
