package dfa

import (
	"errors"
	"fmt"

	"cellmatch/internal/alphabet"
)

// ErrStateCap is returned (wrapped) by FromPatternsMax when the
// dictionary's trie passes the state cap.
var ErrStateCap = errors.New("dfa: automaton exceeds state cap")

// FromPatterns builds the Aho-Corasick DFA for a dictionary, the
// paper's Section 3 construction: a goto trie, BFS failure links, and
// a dense next-move table so every transition is a single indexed load.
//
// Patterns are reduced through red before insertion; the DFA therefore
// runs over reduced input (apply red to the stream before scanning, as
// the paper's PPE-side data reduction does). Pattern IDs are indices
// into the patterns slice. States are numbered in trie-insertion order.
func FromPatterns(patterns [][]byte, red *alphabet.Reduction) (*DFA, error) {
	return FromPatternsMax(patterns, red, 0)
}

// FromPatternsMax is FromPatterns under a state cap: when maxStates is
// positive and the trie would need more states, construction stops at
// the first state past the cap and the error wraps ErrStateCap.
//
// The goto trie is built directly in the dense table: row s holds
// state s's children, 0 meaning "no child" (the root, state 0, is
// never a child). A BFS then turns each row into its final next-move
// row in place — children stay, holes copy the failure state's row,
// which BFS order has already finished — so construction allocates no
// per-node maps and the table is the trie.
func FromPatternsMax(patterns [][]byte, red *alphabet.Reduction, maxStates int) (*DFA, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("dfa: empty dictionary")
	}
	if red == nil {
		red = alphabet.Identity()
	}
	if err := red.Validate(); err != nil {
		return nil, err
	}
	syms := red.Classes
	// A dictionary of b bytes needs at most b+1 states; reserve that
	// (within the cap, and within 64Ki rows) so most builds never grow
	// the table, and trim it to the state count at the end.
	bound := 1
	for _, p := range patterns {
		bound += len(p)
	}
	if maxStates > 0 {
		bound = min(bound, maxStates)
	}
	bound = min(bound, 1<<16)
	next := make([]int32, syms, bound*syms) // zeroed through its capacity
	term := make([]int32, len(patterns))    // the state each pattern ends at
	maxLen := 0
	for id, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("dfa: pattern %d is empty", id)
		}
		maxLen = max(maxLen, len(p))
		cur := 0
		for _, raw := range p {
			e := cur*syms + int(red.Map[raw])
			child := next[e]
			if child == 0 {
				child = int32(len(next) / syms)
				if maxStates > 0 && int(child) >= maxStates {
					return nil, fmt.Errorf("%w: more than %d states", ErrStateCap, maxStates)
				}
				next[e] = child
				if len(next)+syms <= cap(next) {
					next = next[:len(next)+syms]
				} else {
					next = append(next, make([]int32, syms)...)
				}
			}
			cur = int(child)
		}
		term[id] = int32(cur)
	}
	n := len(next) / syms
	if cap(next) != len(next) {
		next = append(make([]int32, 0, len(next)), next...)
	}
	// The ids ending at each state, ascending, as linked lists through
	// the id space: first[s] and link[id] hold id+1, 0 ending a list.
	first := make([]int32, n)
	link := make([]int32, len(patterns))
	for id := len(patterns) - 1; id >= 0; id-- {
		link[id] = first[term[id]]
		first[term[id]] = int32(id + 1)
	}
	d := &DFA{
		Syms:          syms,
		Start:         0,
		Next:          next,
		Accept:        make([]bool, n),
		Out:           make([][]int32, n),
		MaxPatternLen: maxLen,
	}
	fail := make([]int32, n)
	queue := make([]int32, 1, n)
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		row := next[int(s)*syms : int(s)*syms+syms]
		if s == 0 {
			// Depth-1 states fail to the root; the root's holes already
			// read 0, the root itself.
			for _, child := range row {
				if child != 0 {
					queue = append(queue, child)
				}
			}
			continue
		}
		f := int(fail[s])
		frow := next[f*syms : f*syms+syms]
		for c, child := range row {
			if child != 0 {
				fail[child] = frow[c]
				queue = append(queue, child)
			} else {
				row[c] = frow[c]
			}
		}
		if first[s] != 0 || d.Accept[f] {
			d.Out[s] = outputs(first[s], link, d.Out[f])
			d.Accept[s] = true
		}
	}
	return d, nil
}

// outputs is a state's output set: its own ids (the ascending list
// from first through link) merged with its failure state's set. The
// two are disjoint (the failure state's patterns are shorter), so the
// merge is sorted and duplicate-free. A state with no ids of its own
// shares its failure state's set: output sets are immutable once
// built.
func outputs(first int32, link, inherited []int32) []int32 {
	if first == 0 {
		return inherited
	}
	k := len(inherited)
	for id := first; id != 0; id = link[id-1] {
		k++
	}
	out := make([]int32, 0, k)
	for id := first; id != 0; id = link[id-1] {
		for len(inherited) > 0 && inherited[0] < id-1 {
			out, inherited = append(out, inherited[0]), inherited[1:]
		}
		out = append(out, id-1)
	}
	return append(out, inherited...)
}

// TrieStates returns the number of Aho-Corasick states a dictionary
// needs without building the full DFA table — the quantity the tile
// partitioner budgets against (Figure 3 limits).
func TrieStates(patterns [][]byte, red *alphabet.Reduction) int {
	if red == nil {
		red = alphabet.Identity()
	}
	type key struct {
		node int32
		sym  byte
	}
	edges := map[key]int32{}
	n := int32(1)
	for _, p := range patterns {
		cur := int32(0)
		for _, raw := range p {
			c := red.Map[raw]
			k := key{cur, c}
			next, ok := edges[k]
			if !ok {
				next = n
				n++
				edges[k] = next
			}
			cur = next
		}
	}
	return int(n)
}
