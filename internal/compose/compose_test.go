package compose

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
)

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestTopologyArithmetic(t *testing.T) {
	if Parallel(8).TotalTiles() != 8 || Series(4).TotalTiles() != 4 {
		t.Fatal("tile counts")
	}
	if Mixed(2, 4).TotalTiles() != 8 {
		t.Fatal("mixed tiles")
	}
	if err := Mixed(2, 4).Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := Mixed(3, 3).Validate(8); err == nil {
		t.Fatal("9 tiles on 8 SPEs accepted")
	}
	if err := Parallel(0).Validate(8); err == nil {
		t.Fatal("degenerate accepted")
	}
}

func TestSection5Throughputs(t *testing.T) {
	// Paper Section 5: 2 tiles parallel = 10.22 Gbps; 8 = 40.88; the
	// Figure 7 mixed config (2 groups x 4 series) = 10.22 Gbps.
	per := 5.11
	if got := Parallel(2).ThroughputGbps(per); got != 10.22 {
		t.Fatalf("2 parallel = %.2f", got)
	}
	if got := Parallel(8).ThroughputGbps(per); got != 40.88 {
		t.Fatalf("8 parallel = %.2f", got)
	}
	if got := Mixed(2, 4).ThroughputGbps(per); got != 10.22 {
		t.Fatalf("mixed = %.2f", got)
	}
	// Two processors (Section 5): 81.76 Gbps.
	if got := Parallel(16).ThroughputGbps(per); got != 81.76 {
		t.Fatalf("dual-Cell = %.2f", got)
	}
}

func TestPartitionRespectsBudget(t *testing.T) {
	red := alphabet.CaseFold32()
	var dict [][]byte
	for i := 0; i < 40; i++ {
		p := make([]byte, 20)
		p[0] = byte('A' + i%26)
		p[1] = byte('A' + (i/26)%26)
		for j := 2; j < 20; j++ {
			p[j] = byte('A' + (i+j)%26)
		}
		dict = append(dict, p)
	}
	groups, err := Partition(dict, red, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("expected multiple groups, got %d", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		sub := make([][]byte, len(g))
		for i, id := range g {
			if seen[id] {
				t.Fatalf("pattern %d in two groups", id)
			}
			seen[id] = true
			sub[i] = dict[id]
		}
		d, err := dfa.FromPatterns(sub, red)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumStates() > 200 {
			t.Fatalf("group automaton has %d states > 200", d.NumStates())
		}
	}
	if len(seen) != len(dict) {
		t.Fatalf("only %d of %d patterns assigned", len(seen), len(dict))
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(nil, nil, 100); err == nil {
		t.Fatal("empty dictionary accepted")
	}
	if _, err := Partition(pats("TOOLONGPATTERN"), nil, 5); err == nil {
		t.Fatal("oversized pattern accepted")
	}
	if _, err := Partition(pats("A", ""), nil, 100); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestSystemScanBasic(t *testing.T) {
	s, err := NewSystem(pats("VIRUS", "WORM"), Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("XXVIRUSXXWORMXXVIRUS")
	ms, err := s.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Pattern != 0 || ms[0].End != 7 {
		t.Fatalf("first match %+v", ms[0])
	}
	if ms[1].Pattern != 1 || ms[1].End != 13 {
		t.Fatalf("second match %+v", ms[1])
	}
}

func TestSystemCaseFold(t *testing.T) {
	s, err := NewSystem(pats("Attack"), Config{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := s.Scan([]byte("an ATTACK and an attack"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("case-folded matches = %v", ms)
	}
}

// naive oracle over raw bytes with a reduction.
func naiveScan(patterns [][]byte, input []byte, red *alphabet.Reduction) []dfa.Match {
	ri := red.Reduce(input)
	var out []dfa.Match
	for id, p := range patterns {
		rp := red.Reduce(p)
		for end := len(rp); end <= len(ri); end++ {
			if bytes.Equal(ri[end-len(rp):end], rp) {
				out = append(out, dfa.Match{Pattern: int32(id), End: end})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// TestBoundaryStraddlingMatches plants matches exactly on the split
// boundaries and verifies each is found exactly once.
func TestBoundaryStraddlingMatches(t *testing.T) {
	dict := pats("BOUNDARY")
	for groups := 1; groups <= 5; groups++ {
		s, err := NewSystem(dict, Config{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		// Input sized so boundaries land mid-pattern.
		n := 97
		input := bytes.Repeat([]byte{'.'}, n)
		// Plant a match around every possible chunk boundary.
		for pos := 10; pos+8 <= n; pos += 19 {
			copy(input[pos:], "BOUNDARY")
		}
		want := naiveScan(dict, input, s.Red)
		got, err := s.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("groups=%d: got %d matches, want %d: %v", groups, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("groups=%d match %d: %+v vs %+v", groups, i, got[i], want[i])
			}
		}
	}
}

// TestScanRandomizedVsOracle: random dictionaries over a small
// alphabet, random parallel widths, random inputs.
func TestScanRandomizedVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		np := 1 + rng.Intn(5)
		dict := make([][]byte, np)
		for i := range dict {
			l := 1 + rng.Intn(6)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			dict[i] = p
		}
		groups := 1 + rng.Intn(4)
		s, err := NewSystem(dict, Config{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		input := make([]byte, rng.Intn(200))
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		got, err := s.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveScan(dict, input, s.Red)
		if len(got) != len(want) {
			t.Fatalf("trial %d (groups %d): %d vs %d matches\ndict %q",
				trial, groups, len(got), len(want), dict)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: match %d differs: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSeriesDictionaryScaling verifies that a dictionary overflowing
// one tile partitions into series slots and still finds everything.
func TestSeriesDictionaryScaling(t *testing.T) {
	var dict [][]byte
	for i := 0; i < 30; i++ {
		p := make([]byte, 30)
		p[0] = byte('A' + i%26)
		p[1] = byte('A' + (i/26)%26)
		for j := 2; j < 30; j++ {
			p[j] = byte('A' + (i*3+j)%26)
		}
		dict = append(dict, p)
	}
	s, err := NewSystem(dict, Config{MaxStatesPerTile: 300})
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology.SeriesDepth < 2 {
		t.Fatalf("series depth = %d, expected partitioning", s.Topology.SeriesDepth)
	}
	total := 0
	for _, d := range s.Slots {
		total += d.NumStates()
	}
	if total <= 300 {
		t.Fatalf("aggregate states = %d", total)
	}
	// Every pattern is still found.
	for i, p := range dict {
		input := append(append([]byte("xx"), p...), 'x')
		ms, err := s.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range ms {
			if m.Pattern == int32(i) && m.End == 2+len(p) {
				found = true
			}
		}
		if !found {
			t.Fatalf("pattern %d lost after partitioning: %v", i, ms)
		}
	}
}

func TestCountMatches(t *testing.T) {
	s, err := NewSystem(pats("AB"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.CountMatches([]byte("ABAB"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
}
