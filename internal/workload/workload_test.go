package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
)

func TestDictionaryHitsTarget(t *testing.T) {
	red := alphabet.CaseFold32()
	for _, target := range []int{100, 800, 1520, 1712} {
		pats, err := Dictionary(DictConfig{TargetStates: target, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		states := dfa.TrieStates(pats, red)
		if states > target {
			t.Fatalf("target %d: got %d states (over)", target, states)
		}
		if states < target-30 {
			t.Fatalf("target %d: got only %d states", target, states)
		}
	}
}

func TestDictionaryDeterministic(t *testing.T) {
	a, _ := Dictionary(DictConfig{TargetStates: 500, Seed: 9})
	b, _ := Dictionary(DictConfig{TargetStates: 500, Seed: 9})
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("nondeterministic content")
		}
	}
	c, _ := Dictionary(DictConfig{TargetStates: 500, Seed: 10})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !bytes.Equal(a[i], c[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed has no effect")
	}
}

func TestDictionaryErrors(t *testing.T) {
	if _, err := Dictionary(DictConfig{TargetStates: 2}); err == nil {
		t.Fatal("tiny target accepted")
	}
	if _, err := Dictionary(DictConfig{TargetStates: 100, PatternLen: 1}); err == nil {
		t.Fatal("tiny patterns accepted")
	}
}

func TestDictionaryBuildsValidDFA(t *testing.T) {
	pats, err := Dictionary(DictConfig{TargetStates: 1520, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfa.FromPatterns(pats, alphabet.CaseFold32())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStates() > 1520 {
		t.Fatalf("DFA states %d exceed tile budget", d.NumStates())
	}
}

func TestTrafficPlantsMatches(t *testing.T) {
	dict := SignatureDictionary()
	data, planted, err := Traffic(TrafficConfig{
		Bytes: 20000, MatchEvery: 1000, Dictionary: dict, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 20000 {
		t.Fatalf("traffic size %d", len(data))
	}
	if planted < 15 {
		t.Fatalf("planted only %d", planted)
	}
	// The planted signatures are findable (case-folded scan).
	red := alphabet.CaseFold32()
	d, err := dfa.FromPatterns(dict, red)
	if err != nil {
		t.Fatal(err)
	}
	found := d.CountFinalEntries(red.Reduce(data))
	if found < planted {
		t.Fatalf("found %d < planted %d", found, planted)
	}
}

func TestTrafficNoPlanting(t *testing.T) {
	data, planted, err := Traffic(TrafficConfig{Bytes: 1000, Seed: 5})
	if err != nil || planted != 0 || len(data) != 1000 {
		t.Fatalf("plain traffic: %d bytes, %d planted, %v", len(data), planted, err)
	}
	if _, _, err := Traffic(TrafficConfig{Bytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestAdversarialBMH(t *testing.T) {
	pattern := []byte("aaaaaaab")
	adv := AdversarialBMH([]byte("baaaaaaa"), 1000)
	if len(adv) != 1000 {
		t.Fatalf("length %d", len(adv))
	}
	_ = pattern
	if AdversarialBMH(nil, 10) != nil {
		t.Fatal("empty pattern should yield nil")
	}
}

func TestInterleavedStreams(t *testing.T) {
	data := make([]byte, 160)
	streams, err := InterleavedStreams(data)
	if err != nil || len(streams) != 16 || len(streams[0]) != 10 {
		t.Fatalf("streams: %d x %d (%v)", len(streams), len(streams[0]), err)
	}
	if _, err := InterleavedStreams(make([]byte, 17)); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestLongPatternDictionary(t *testing.T) {
	pats, err := LongPatternDictionary(48, 16, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 48 {
		t.Fatalf("patterns = %d", len(pats))
	}
	for i, p := range pats {
		if len(p) < 16 || len(p) > 40 {
			t.Fatalf("pattern %d length %d out of [16,40]", i, len(p))
		}
		for _, c := range p {
			if c < 'A' || c > 'Z' {
				t.Fatalf("pattern %d has non-uppercase byte %q", i, c)
			}
		}
	}
	again, err := LongPatternDictionary(48, 16, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pats {
		if string(pats[i]) != string(again[i]) {
			t.Fatal("generation is not deterministic")
		}
	}
	for _, bad := range [][4]int{{0, 16, 40, 1}, {4, 1, 40, 1}, {4, 16, 8, 1}} {
		if _, err := LongPatternDictionary(bad[0], bad[1], bad[2], int64(bad[3])); err == nil {
			t.Fatalf("bad shape %v accepted", bad)
		}
	}
}

func TestFleetDictionary(t *testing.T) {
	pats, err := FleetDictionary(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 5000 {
		t.Fatalf("patterns = %d", len(pats))
	}
	seen := make(map[string]bool, len(pats))
	for i, p := range pats {
		if len(p) < 8 || len(p) > 24 {
			t.Fatalf("pattern %d length %d out of [8,24]", i, len(p))
		}
		for _, c := range p {
			if c < 'A' || c > 'Z' {
				t.Fatalf("pattern %d has non-uppercase byte %q", i, c)
			}
		}
		if seen[string(p)] {
			t.Fatalf("pattern %d duplicates an earlier entry: %q", i, p)
		}
		seen[string(p)] = true
	}
	again, err := FleetDictionary(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pats {
		if string(pats[i]) != string(again[i]) {
			t.Fatal("generation is not deterministic")
		}
	}
	if _, err := FleetDictionary(0, 1); err == nil {
		t.Fatal("zero-size fleet accepted")
	}
	if _, err := FleetDictionary(26*26*26*26+1, 1); err == nil {
		t.Fatal("over-prefix-space fleet accepted")
	}
}

// Dictionary output is pinned byte for byte: the served benchmark and
// the BENCH baselines name their dictionaries by these bytes (one
// pattern per line, the cellmatchd dictionary file format). The
// 30000-state build also exercises the incremental state count; a
// whole-dictionary recount after every pattern takes seconds there.
func TestDictionaryPinned(t *testing.T) {
	for _, c := range []struct {
		target int
		seed   int64
		sha    string
	}{
		{1520, 1, "802d439bdb6b2bdc57798dee87e089635373f54568141da6044144d3c60e1045"},
		{30000, 1, "f567fce887e90b52b60b57b8b54376951c0dc96cc52379e47daad3329842be80"},
	} {
		start := time.Now()
		pats, err := Dictionary(DictConfig{TargetStates: c.target, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		h := sha256.New()
		for _, p := range pats {
			h.Write(p)
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
			t.Errorf("(%d, seed %d): sha256 %s, want %s", c.target, c.seed, got, c.sha)
		}
		if states := dfa.TrieStates(pats, alphabet.CaseFold32()); states > c.target {
			t.Errorf("(%d, seed %d): %d states", c.target, c.seed, states)
		}
		t.Logf("(%d, seed %d): %d patterns in %v", c.target, c.seed, len(pats), took)
	}
}
