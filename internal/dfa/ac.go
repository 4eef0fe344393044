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
// into the patterns slice. States are numbered breadth-first, so the
// shallow states that take most transitions on traffic fill the first
// pages of a big table, as the paper keeps the hot STT in local store;
// every rung built from the DFA inherits the order.
func FromPatterns(patterns [][]byte, red *alphabet.Reduction) (*DFA, error) {
	return FromPatternsMax(patterns, red, 0)
}

// FromPatternsMax is FromPatterns under a state cap: when maxStates is
// positive and the trie would need more states, construction stops at
// the first state past the cap and the error wraps ErrStateCap; every
// other error comes first.
//
// The goto trie is built directly in the dense table: row s holds
// state s's children, 0 meaning "no child" (the root, state 0, is
// never a child). Byte k of every pattern is inserted before byte k+1
// of any, over a compacted list of the patterns longer than k, so the
// build is linear in dictionary bytes and numbers states breadth-first.
// A failure state is shallower and so has a smaller id: one pass over
// the ids turns each row into its final next-move row in place —
// children stay, holes copy the failure state's finished row — so
// construction allocates no per-node maps and the table is the trie.
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
	bound, maxLen := 1, 0
	for id, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("dfa: pattern %d is empty", id)
		}
		bound += len(p)
		maxLen = max(maxLen, len(p))
	}
	if maxStates > 0 {
		bound = min(bound, maxStates)
	}
	bound = min(bound, 1<<16)
	next := make([]int32, syms, bound*syms) // zeroed through its capacity
	term := make([]int32, len(patterns))    // the state each pattern ends at
	// live holds the ids of the patterns longer than depth k, ascending,
	// and at[i] the depth-k state pattern live[i] has reached.
	live := make([]int32, len(patterns))
	at := make([]int32, len(patterns))
	for id := range live {
		live[id] = int32(id)
	}
	for k := 0; len(live) > 0; k++ {
		kept := 0
		for i, id := range live {
			p := patterns[id]
			e := int(at[i])*syms + int(red.Map[p[k]])
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
			if len(p) == k+1 {
				term[id] = child
				continue
			}
			live[kept], at[kept] = id, child
			kept++
		}
		live, at = live[:kept], at[:kept]
	}
	n := len(next) / syms
	// The reservation overshoots by the bytes patterns share as
	// prefixes, usually a few percent: drop that slack only when it is
	// worth a copy of the whole table.
	if cap(next)-len(next) > len(next)/8 {
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
	// Depth-1 states fail to the root (whose holes read 0, itself);
	// deeper states get theirs from their parent, a smaller id.
	fail := make([]int32, n)
	for s := 1; s < n; s++ {
		row := next[s*syms : s*syms+syms]
		f := int(fail[s])
		frow := next[f*syms : f*syms+syms]
		for c, child := range row {
			if child != 0 {
				fail[child] = frow[c]
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

// TrieCounter incrementally counts Aho-Corasick goto-trie states over
// raw pattern bytes: a dense child table (one row per state, one entry
// per reduced symbol, 0 = no child since the root is never a child).
// Callers that test a budget after every pattern (the tile partition,
// the workload generator) pay for each pattern once; TrieStates stays
// the independent whole-dictionary count tests check it against.
type TrieCounter struct {
	red   *alphabet.Reduction
	next  []int32
	nodes int
}

// NewTrieCounter starts a trie holding only the root under red.
func NewTrieCounter(red *alphabet.Reduction) *TrieCounter {
	return &TrieCounter{red: red, next: make([]int32, red.Classes), nodes: 1}
}

// States is the trie's state count, the root included.
func (t *TrieCounter) States() int { return t.nodes }

// Reset empties the trie to its root, keeping the table's storage.
func (t *TrieCounter) Reset() {
	t.next = t.next[:t.red.Classes]
	clear(t.next)
	t.nodes = 1
}

// WouldAdd is the number of states inserting p would create.
func (t *TrieCounter) WouldAdd(p []byte) int {
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

// Insert adds p's states to the trie.
func (t *TrieCounter) Insert(p []byte) {
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
