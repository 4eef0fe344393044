package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cellmatch/internal/alphabet"
)

// naiveFindAll is the oracle: positions where a (reduced) pattern ends
// in the (reduced) text.
func naiveFindAll(patterns [][]byte, text []byte, red *alphabet.Reduction) []Match {
	if red == nil {
		red = alphabet.Identity()
	}
	rt := red.Reduce(text)
	var out []Match
	for id, p := range patterns {
		rp := red.Reduce(p)
		for end := len(rp); end <= len(rt); end++ {
			if bytes.Equal(rt[end-len(rp):end], rp) {
				out = append(out, Match{Pattern: int32(id), End: end})
			}
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

// naiveFinalEntries counts positions where at least one pattern ends.
func naiveFinalEntries(patterns [][]byte, text []byte, red *alphabet.Reduction) int {
	ms := naiveFindAll(patterns, text, red)
	seen := map[int]bool{}
	for _, m := range ms {
		seen[m.End] = true
	}
	return len(seen)
}

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestACBasic(t *testing.T) {
	d, err := FromPatterns(pats("HE", "SHE", "HIS", "HERS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	text := []byte("USHERS")
	got := d.FindAll(text)
	sortMatches(got)
	want := naiveFindAll(pats("HE", "SHE", "HIS", "HERS"), text, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Classic: USHERS contains SHE (end 4), HE (end 4), HERS (end 6).
	if len(got) != 3 {
		t.Fatalf("expected 3 matches, got %v", got)
	}
}

func TestACCountFinalEntries(t *testing.T) {
	p := pats("AB", "BC")
	d, err := FromPatterns(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("ABCABC")
	// Ends: AB at 2, BC at 3, AB at 5, BC at 6 -> 4 distinct positions.
	if got := d.CountFinalEntries(text); got != naiveFinalEntries(p, text, nil) {
		t.Fatalf("count = %d, oracle = %d", got, naiveFinalEntries(p, text, nil))
	}
}

func TestACOverlappingPatterns(t *testing.T) {
	p := pats("AA", "AAA")
	d, err := FromPatterns(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("AAAA")
	got := d.FindAll(text)
	sortMatches(got)
	want := naiveFindAll(p, text, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestACSubstringPattern(t *testing.T) {
	// One pattern inside another: failure-chain output merging.
	p := pats("ABCDE", "BCD", "C")
	d, err := FromPatterns(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("XABCDEX")
	got := d.FindAll(text)
	sortMatches(got)
	want := naiveFindAll(p, text, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestACDuplicatePatterns(t *testing.T) {
	p := pats("DUP", "DUP")
	d, err := FromPatterns(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := d.FindAll([]byte("XDUPX"))
	if len(got) != 2 {
		t.Fatalf("duplicate patterns should both report: %v", got)
	}
}

func TestACWithReduction(t *testing.T) {
	red := alphabet.CaseFold32()
	p := pats("VIRUS")
	d, err := FromPatterns(p, red)
	if err != nil {
		t.Fatal(err)
	}
	// Scan must be over reduced text; case differences vanish.
	text := red.Reduce([]byte("a virus! And A VIRUS too"))
	if got := d.CountFinalEntries(text); got != 2 {
		t.Fatalf("case-folded count = %d, want 2", got)
	}
}

func TestACEmptyInputs(t *testing.T) {
	if _, err := FromPatterns(nil, nil); err == nil {
		t.Fatal("empty dictionary accepted")
	}
	if _, err := FromPatterns(pats("A", ""), nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestACMaxPatternLen(t *testing.T) {
	d, err := FromPatterns(pats("AB", "ABCDEF", "XY"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxPatternLen != 6 {
		t.Fatalf("MaxPatternLen = %d", d.MaxPatternLen)
	}
}

func TestACStateCountIsTrieSize(t *testing.T) {
	p := pats("HE", "SHE", "HIS", "HERS")
	d, err := FromPatterns(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Trie: root,H,HE,S,SH,SHE,HI,HIS,HER,HERS = 10 nodes.
	if d.NumStates() != 10 {
		t.Fatalf("states = %d, want 10", d.NumStates())
	}
	if TrieStates(p, nil) != 10 {
		t.Fatalf("TrieStates = %d", TrieStates(p, nil))
	}
}

func TestTrieStatesSharedPrefix(t *testing.T) {
	if n := TrieStates(pats("ABC", "ABD"), nil); n != 5 {
		t.Fatalf("shared-prefix trie = %d, want 5", n)
	}
}

func TestACStartNotAccepting(t *testing.T) {
	d, err := FromPatterns(pats("A"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept[d.Start] {
		t.Fatal("start state accepting with nonempty patterns")
	}
}

// Differential property test: random small dictionaries over a tiny
// alphabet (to force overlaps and failure transitions) against the
// naive oracle, both for FindAll and CountFinalEntries.
func TestACRandomizedVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	letters := []byte("AB")
	for trial := 0; trial < 300; trial++ {
		np := 1 + rng.Intn(5)
		dict := make([][]byte, np)
		for i := range dict {
			l := 1 + rng.Intn(5)
			p := make([]byte, l)
			for j := range p {
				p[j] = letters[rng.Intn(len(letters))]
			}
			dict[i] = p
		}
		text := make([]byte, rng.Intn(60))
		for j := range text {
			text[j] = letters[rng.Intn(len(letters))]
		}
		d, err := FromPatterns(dict, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := d.FindAll(text)
		sortMatches(got)
		want := naiveFindAll(dict, text, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: dict %q text %q:\ngot  %v\nwant %v",
				trial, dict, text, got, want)
		}
		if c := d.CountFinalEntries(text); c != naiveFinalEntries(dict, text, nil) {
			t.Fatalf("trial %d: count %d vs oracle %d", trial, c,
				naiveFinalEntries(dict, text, nil))
		}
	}
}

// Larger randomized trial over the paper's 32-symbol reduced alphabet.
func TestACRandomizedReducedAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	red := alphabet.CaseFold32()
	for trial := 0; trial < 50; trial++ {
		np := 1 + rng.Intn(8)
		dict := make([][]byte, np)
		for i := range dict {
			l := 2 + rng.Intn(6)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('A' + rng.Intn(26))
			}
			dict[i] = p
		}
		text := make([]byte, 200)
		for j := range text {
			text[j] = byte('A' + rng.Intn(26))
		}
		d, err := FromPatterns(dict, red)
		if err != nil {
			t.Fatal(err)
		}
		rt := red.Reduce(text)
		got := d.FindAll(rt)
		sortMatches(got)
		want := naiveFindAll(dict, text, red)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d mismatch: dict %q", trial, dict)
		}
	}
}

func TestACDenseTableClosure(t *testing.T) {
	// Every state must have a transition for every symbol (the dense
	// next-move property the STT encoding depends on).
	d, err := FromPatterns(pats("ABC", "BCA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumStates()
	for s := 0; s < n; s++ {
		for c := 0; c < d.Syms; c++ {
			nx := d.Step(s, byte(c))
			if nx < 0 || nx >= n {
				t.Fatalf("state %d sym %d -> %d out of range", s, c, nx)
			}
		}
	}
}

// acNode is one trie node of mapFromPatterns.
type acNode struct {
	children map[byte]int32
	fail     int32
	out      []int32
}

// mapFromPatterns is the textbook construction FromPatterns replaced —
// a map per trie node, failure links by chain walk, output sets sorted
// at emission — kept as the oracle the dense build must reproduce
// exactly.
func mapFromPatterns(patterns [][]byte, red *alphabet.Reduction) (*DFA, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("dfa: empty dictionary")
	}
	if red == nil {
		red = alphabet.Identity()
	}
	maxLen := 0
	nodes := []*acNode{{children: map[byte]int32{}}}
	for id, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("dfa: pattern %d is empty", id)
		}
		maxLen = max(maxLen, len(p))
		cur := int32(0)
		for _, raw := range p {
			c := red.Map[raw]
			next, ok := nodes[cur].children[c]
			if !ok {
				next = int32(len(nodes))
				nodes = append(nodes, &acNode{children: map[byte]int32{}})
				nodes[cur].children[c] = next
			}
			cur = next
		}
		nodes[cur].out = append(nodes[cur].out, int32(id))
	}
	sortedSymbols := func(n *acNode) []byte {
		out := make([]byte, 0, len(n.children))
		for c := range n.children {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	var queue []int32
	for _, c := range sortedSymbols(nodes[0]) {
		queue = append(queue, nodes[0].children[c])
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, c := range sortedSymbols(nodes[u]) {
			v := nodes[u].children[c]
			f := nodes[u].fail
			for {
				if next, ok := nodes[f].children[c]; ok && next != v {
					nodes[v].fail = next
					break
				}
				if f == 0 {
					nodes[v].fail = 0
					break
				}
				f = nodes[f].fail
			}
			nodes[v].out = append(nodes[v].out, nodes[nodes[v].fail].out...)
			queue = append(queue, v)
		}
	}
	syms := red.Classes
	n := len(nodes)
	d := &DFA{
		Syms:          syms,
		Next:          make([]int32, n*syms),
		Accept:        make([]bool, n),
		Out:           make([][]int32, n),
		MaxPatternLen: maxLen,
	}
	for _, s := range append([]int32{0}, queue...) {
		node := nodes[s]
		for c := 0; c < syms; c++ {
			if next, ok := node.children[byte(c)]; ok {
				d.Next[int(s)*syms+c] = next
			} else if s != 0 {
				d.Next[int(s)*syms+c] = d.Next[int(node.fail)*syms+c]
			}
		}
		if len(node.out) > 0 {
			out := append([]int32(nil), node.out...)
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			uniq := out[:0]
			for i, v := range out {
				if i == 0 || v != out[i-1] {
					uniq = append(uniq, v)
				}
			}
			d.Accept[s] = true
			d.Out[s] = uniq
		}
	}
	return d, nil
}

// randomDict builds a dictionary with heavy prefix sharing, substrings
// of other entries, and duplicates — the shapes that exercise
// insertion-order numbering, failure chains, and inherited outputs.
func randomDict(rng *rand.Rand, n int) [][]byte {
	roots := []string{"alpha", "alarm", "beta", "be", "gamma", "g", "delta", "ALPHA", "Beta"}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var p []byte
		switch rng.Intn(5) {
		case 0: // shared prefix + suffix
			p = []byte(roots[rng.Intn(len(roots))] + fmt.Sprintf("%03d", rng.Intn(50)))
		case 1: // short
			p = []byte(fmt.Sprintf("%c%c", 'a'+rng.Intn(6), 'A'+rng.Intn(6)))
		case 2: // duplicate-prone
			p = []byte(roots[rng.Intn(len(roots))])
		case 3: // a repeat of an earlier entry, or a slice of one
			if len(out) > 0 {
				q := out[rng.Intn(len(out))]
				lo := rng.Intn(len(q))
				p = append([]byte(nil), q[lo:lo+1+rng.Intn(len(q)-lo)]...)
				break
			}
			fallthrough
		default: // random bytes within a small alphabet
			l := 1 + rng.Intn(12)
			p = make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(8))
			}
		}
		out = append(out, p)
	}
	return out
}

// TestFromPatternsMatchesMapOracle pins the dense goto-table build to
// the map-based construction it replaced: the identical DFA (state
// numbering, Next, Out, Accept) over random dictionaries under the
// identity, case-fold, and dictionary-derived reductions.
func TestFromPatternsMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pats := randomDict(rng, 1+rng.Intn(300))
		dict, err := alphabet.ForDictionary(pats, seed%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, red := range map[string]*alphabet.Reduction{
			"identity": alphabet.Identity(), "fold32": alphabet.CaseFold32(), "dictionary": dict,
		} {
			want, err := mapFromPatterns(pats, red)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromPatterns(pats, red)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %s: dense build differs from the map oracle (%d vs %d states)",
					seed, name, got.NumStates(), want.NumStates())
			}
			if capped, err := FromPatternsMax(pats, red, want.NumStates()); err != nil || !reflect.DeepEqual(want, capped) {
				t.Fatalf("seed %d %s: build at the exact cap: %v", seed, name, err)
			}
		}
	}
}

// TestFromPatternsMaxStops checks the cap: one state short of the trie
// is ErrStateCap, and errors the uncapped build reports come first
// when they precede the overflow.
func TestFromPatternsMaxStops(t *testing.T) {
	p := pats("HE", "SHE", "HIS", "HERS") // 10 states
	if _, err := FromPatternsMax(p, nil, 9); !errors.Is(err, ErrStateCap) {
		t.Fatalf("cap 9: got %v, want ErrStateCap", err)
	}
	if d, err := FromPatternsMax(p, nil, 10); err != nil || d.NumStates() != 10 {
		t.Fatalf("cap 10: %v", err)
	}
	if _, err := FromPatternsMax(pats("A", ""), nil, 2); errors.Is(err, ErrStateCap) || err == nil {
		t.Fatalf("empty pattern under a cap: got %v", err)
	}
	for _, dict := range [][][]byte{nil, pats("A", "", "B")} {
		_, err := FromPatterns(dict, nil)
		_, want := mapFromPatterns(dict, nil)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("dictionary %q: error %v, want %v", dict, err, want)
		}
	}
}

// TestFromPatternsExactBacking checks the table is trimmed to the
// state count: the build's growth slack must not stay live with the
// automaton.
func TestFromPatternsExactBacking(t *testing.T) {
	pats := randomDict(rand.New(rand.NewSource(7)), 2000)
	d, err := FromPatterns(pats, alphabet.CaseFold32())
	if err != nil {
		t.Fatal(err)
	}
	if cap(d.Next) != len(d.Next) {
		t.Fatalf("Next backing holds %d entries for %d", cap(d.Next), len(d.Next))
	}
}
