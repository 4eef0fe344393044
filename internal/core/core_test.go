package core

import (
	"sort"
	"testing"
)

func TestCompileAndFindAll(t *testing.T) {
	m, err := CompileStrings([]string{"virus", "worm"}, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.FindAll([]byte("a VIRUS, a worm, a Virus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Pattern != 0 || ms[0].End != 7 {
		t.Fatalf("first match %+v", ms[0])
	}
}

func TestCountAndContains(t *testing.T) {
	m, err := CompileStrings([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Count([]byte("abxab"))
	if err != nil || n != 2 {
		t.Fatalf("count = %d (%v)", n, err)
	}
	ok, err := m.Contains([]byte("xxabyy"))
	if err != nil || !ok {
		t.Fatal("contains should be true")
	}
	ok, err = m.Contains([]byte("xxyy"))
	if err != nil || ok {
		t.Fatal("contains should be false")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileStrings(nil, Options{}); err == nil {
		t.Fatal("empty dictionary accepted")
	}
	if _, err := CompileStrings([]string{""}, Options{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestStatsShape(t *testing.T) {
	m, err := CompileStrings([]string{"alpha", "beta", "gamma"}, Options{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Patterns != 3 || s.Groups != 2 || s.SeriesDepth != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.States < 10 || s.STTBytes != s.States*128 {
		t.Fatalf("states/STT: %+v", s)
	}
	if s.MaxPatternLen != 5 {
		t.Fatalf("max pattern len = %d", s.MaxPatternLen)
	}
	if m.NumPatterns() != 3 || string(m.Pattern(1)) != "beta" {
		t.Fatal("pattern accessors")
	}
}

func TestRegexSet(t *testing.T) {
	rs, err := CompileRegexes([]string{"ab*c", "x[0-9]+"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.MatchWhole([]byte("abbbc")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("match = %v", got)
	}
	if got := rs.MatchWhole([]byte("x123")); len(got) != 1 || got[0] != 1 {
		t.Fatalf("match = %v", got)
	}
	if got := rs.MatchWhole([]byte("nope")); got != nil {
		t.Fatalf("match = %v", got)
	}
	if _, err := CompileRegexes([]string{"("}, false); err == nil {
		t.Fatal("bad regex accepted")
	}
	if _, err := CompileRegexes(nil, false); err == nil {
		t.Fatal("no expressions accepted")
	}
}

func TestRegexSetCaseFold(t *testing.T) {
	rs, err := CompileRegexes([]string{"virus"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.MatchWhole([]byte("VIRUS")); len(got) != 1 {
		t.Fatal("case folding lost")
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	dict := []string{"needle", "edl"}
	m, err := CompileStrings(dict, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("haystack needle haystack needle end")
	batch, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in awkward chunk sizes.
	for _, chunk := range []int{1, 3, 7, 1000} {
		s := m.NewStream()
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := s.Write(data[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Matches()
		sortMatches(got)
		want := append([]Match(nil), batch...)
		sortMatches(want)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d vs %d matches", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: match %d: %+v vs %+v", chunk, i, got[i], want[i])
			}
		}
		if s.BytesSeen() != len(data) {
			t.Fatalf("bytes seen = %d", s.BytesSeen())
		}
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func TestStreamAcrossChunkBoundaryMatch(t *testing.T) {
	m, err := CompileStrings([]string{"boundary"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewStream()
	s.Write([]byte("xxxboun"))
	s.Write([]byte("daryxxx"))
	ms := s.Matches()
	if len(ms) != 1 || ms[0].End != 11 {
		t.Fatalf("straddling match = %v", ms)
	}
}
