package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cellmatch/internal/filter"
	"cellmatch/internal/parallel"
)

// filterVerifiers compiles one dictionary onto every verifier tier
// (dense kernel, sharded, stt) with the filter both forced on and
// forced off — the six-way matrix the filtered paths are proven
// against. Tiers that the dictionary cannot occupy (e.g. sharding a
// dictionary that fits one shard) are checked by engine name.
func filterVerifiers(t *testing.T, patterns []string, fold bool) map[string][2]*Matcher {
	t.Helper()
	out := map[string][2]*Matcher{}
	compile := func(engine EngineOptions) [2]*Matcher {
		var pair [2]*Matcher
		for i, mode := range []FilterMode{FilterOn, FilterOff} {
			e := engine
			e.Filter = mode
			m, err := CompileStrings(patterns, Options{CaseFold: fold, Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = m
		}
		return pair
	}
	defaultPair := compile(EngineOptions{})
	if got := defaultPair[0].Stats().Engine; got != "stride2" && got != "kernel" {
		t.Fatalf("default engine = %q", got)
	}
	out[defaultPair[0].Stats().Engine] = defaultPair
	kernelPair := compile(EngineOptions{Stride: 1})
	if got := kernelPair[0].Stats().Engine; got != "kernel" {
		t.Fatalf("stride-1 engine = %q", got)
	}
	out["kernel"] = kernelPair
	budget := kernelPair[1].Stats().KernelTableBytes * 3 / 4
	shardPair := compile(EngineOptions{MaxTableBytes: budget, MaxShards: 8})
	if got := shardPair[0].Stats().Engine; got == "kernel" {
		t.Fatalf("under-budget compile still selected kernel")
	}
	out[shardPair[0].Stats().Engine] = shardPair
	out["stt"] = compile(EngineOptions{DisableKernel: true})
	return out
}

// TestFilterEquivalenceMatrix is the deterministic core of the
// FuzzFilterEquivalence guarantee: on a fixed corpus with overlapping
// patterns and matches straddling every window and chunk boundary,
// filter-on must agree byte-for-byte with filter-off on every verifier
// tier, across FindAll, Count, every two-part Stream split, and every
// parallel/reader chunk size from 1 to the input length (sequential
// workers and the shared pool both).
func TestFilterEquivalenceMatrix(t *testing.T) {
	dicts := []struct {
		name     string
		patterns []string
		fold     bool
	}{
		{
			// Overlapping suffix/prefix structure; matches straddle
			// every boundary of the repeated phrase.
			name:     "overlapping",
			patterns: []string{"abracadab", "cadabraca", "abracadabra", "dabra"},
		},
		{
			name:     "casefold",
			patterns: []string{"VirusSig", "russich", "SIGNAL"},
			fold:     true,
		},
	}
	data := []byte(strings.Repeat("abracadabra russich VirusSigNAL dabra ", 5))
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, dc := range dicts {
		t.Run(dc.name, func(t *testing.T) {
			for tier, pair := range filterVerifiers(t, dc.patterns, dc.fold) {
				onM, offM := pair[0], pair[1]
				if !onM.Stats().FilterEnabled || !onM.FilterActive() {
					t.Fatalf("%s: FilterOn did not enable the filter: %+v", tier, onM.Stats())
				}
				if offM.Stats().FilterEnabled || offM.FilterActive() {
					t.Fatalf("%s: FilterOff left the filter on", tier)
				}
				want, err := offM.FindAll(data)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("fixture has no matches")
				}
				got, err := onM.FindAll(data)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, tier+"/FindAll", got, want)
				// The filtered matcher's own bypass agrees too.
				bypass, err := onM.FindAllUnfiltered(data)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, tier+"/FindAllUnfiltered", bypass, want)
				if n, err := onM.Count(data); err != nil || n != len(want) {
					t.Fatalf("%s: Count = %d (%v), want %d", tier, n, err, len(want))
				}
				// Every two-part stream split.
				for cut := 0; cut <= len(data); cut++ {
					s := onM.NewStream()
					s.Write(data[:cut])
					s.Write(data[cut:])
					assertSameMatches(t, tier+"/Stream", s.Matches(), want)
				}
				// Every parallel chunk size, ad-hoc workers and pool.
				for chunk := 1; chunk <= len(data); chunk++ {
					for _, popts := range []ParallelOptions{
						{Workers: 3, ChunkBytes: chunk},
						{ChunkBytes: chunk, Pool: pool},
					} {
						par, err := onM.FindAllParallel(data, popts)
						if err != nil {
							t.Fatal(err)
						}
						assertSameMatches(t, tier+"/FindAllParallel", par, want)
						rd, err := onM.ScanReader(bytes.NewReader(data), popts)
						if err != nil {
							t.Fatal(err)
						}
						assertSameMatches(t, tier+"/ScanReader", rd, want)
					}
					// Per-request bypass is byte-identical as well.
					par, err := onM.FindAllParallel(data, ParallelOptions{
						Workers: 2, ChunkBytes: chunk, ScanOptions: ScanOptions{DisableFilter: true},
					})
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, tier+"/DisableFilter", par, want)
				}
			}
		})
	}
}

// TestFilterBypassesShortPatterns: a dictionary with a single-byte
// minimum gives the window filter nothing to slide — even FilterOn
// must bypass it silently, scan every byte, and stay byte-identical.
func TestFilterBypassesShortPatterns(t *testing.T) {
	patterns := []string{"a", "abra", "cadabra"}
	data := []byte(strings.Repeat("abracadabra ", 20))
	for _, mode := range []FilterMode{FilterAuto, FilterOn} {
		m, err := CompileStrings(patterns, Options{Engine: EngineOptions{Filter: mode}})
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.FilterEnabled || st.FilterWindow != 0 {
			t.Fatalf("mode %d: m=1 dictionary enabled the filter: %+v", mode, st)
		}
		if st.MinPatternLen != 1 {
			t.Fatalf("MinPatternLen = %d, want 1", st.MinPatternLen)
		}
		off, err := CompileStrings(patterns, Options{Engine: EngineOptions{Filter: FilterOff}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "bypass", got, want)
		if st.WindowsSkipped != 0 {
			t.Fatalf("bypassed filter skipped windows: %+v", st)
		}
	}
}

// TestFilterAutoSelection: the auto mode enables the filter only when
// the window, dictionary size, and evidence density qualify.
func TestFilterAutoSelection(t *testing.T) {
	// Qualifying: few long patterns, sparse masks.
	m, err := CompileStrings([]string{"VIRUSSIG", "WORMSIGN"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); !st.FilterEnabled || st.FilterWindow != 8 || st.MinPatternLen != 8 {
		t.Fatalf("qualifying dictionary not auto-filtered: %+v", st)
	}
	// Short minimum (below the auto threshold of 4): auto declines,
	// but FilterOn still accepts (window 2 is legal).
	m, err = CompileStrings([]string{"ab", "abracadabra"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().FilterEnabled {
		t.Fatalf("minimum length 2 auto-enabled: %+v", m.Stats())
	}
	m, err = CompileStrings([]string{"ab", "abracadabra"}, Options{Engine: EngineOptions{Filter: FilterOn}})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); !st.FilterEnabled || st.FilterWindow != 2 {
		t.Fatalf("FilterOn with window 2 declined: %+v", st)
	}
	// Saturated evidence (every alphabet symbol at every window
	// position): auto declines even though the window length qualifies.
	m, err = CompileStrings([]string{
		"abcd", "bcda", "cdab", "dabc", "dcba", "badc", "cadb", "dbca",
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().FilterEnabled {
		t.Fatalf("saturated dictionary auto-enabled: %+v", m.Stats())
	}
	// Out-of-range modes are rejected at compile time — Load enforces
	// the same bound, so every compiled matcher's artifact round-trips.
	if _, err := CompileStrings([]string{"abcd"}, Options{
		Engine: EngineOptions{Filter: FilterMode(3)},
	}); err == nil {
		t.Fatal("out-of-range filter mode accepted")
	}
}

// TestFilterAutoBoundaries pins the FilterAuto gates at their exact
// constants — minimum pattern length 4, 256 patterns, 75% evidence
// density — so a drive-by retune of the thresholds shows up as a test
// diff, not as a silent engine-selection change in production.
func TestFilterAutoBoundaries(t *testing.T) {
	if filterAutoMinLen != 4 || filterAutoMaxPatterns != 256 || filterAutoMaxDensity != 0.75 {
		t.Fatalf("auto gate constants moved: minLen=%d maxPatterns=%d maxDensity=%v",
			filterAutoMinLen, filterAutoMaxPatterns, filterAutoMaxDensity)
	}

	enabled := func(t *testing.T, pats []string) bool {
		t.Helper()
		m, err := CompileStrings(pats, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Stats().FilterEnabled
	}

	// Length boundary: minimum 4 qualifies, minimum 3 does not.
	if !enabled(t, []string{"wxyz", "qrstu"}) {
		t.Fatal("min length 4 declined")
	}
	if enabled(t, []string{"wxy", "qrstu"}) {
		t.Fatal("min length 3 accepted")
	}

	// Count boundary: 256 patterns qualify, 257 do not. A shared
	// 4-byte prefix keeps the evidence tables sparse, so the count
	// gate is the only one in play.
	sharedPrefix := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("wxyz%03d", i)
		}
		return out
	}
	if !enabled(t, sharedPrefix(256)) {
		t.Fatal("256 patterns declined")
	}
	if enabled(t, sharedPrefix(257)) {
		t.Fatal("257 patterns accepted")
	}

	// Density boundary: the gate declines strictly above 0.75, so a
	// dictionary landing exactly on 0.75 keeps the filter and one bit
	// more loses it. Both dictionaries are checked against the same
	// evidence tables the matcher builds, so the test fails loudly if
	// the density arithmetic (not just the constant) changes.
	density := func(t *testing.T, pats []string) float64 {
		t.Helper()
		m, err := CompileStrings(pats, Options{Engine: EngineOptions{Filter: FilterOn}})
		if err != nil {
			t.Fatal(err)
		}
		f, err := filter.Build(m.patterns, m.sys.Red)
		if err != nil {
			t.Fatal(err)
		}
		return f.Density()
	}
	// Over {a,b,c,d}: all four symbols at positions 0-2, only three at
	// position 3 -> 15 of 20 (class, position) slots = 0.75 exactly.
	atBoundary := []string{"aaaa", "bbbb", "cccc", "dddc", "abca"}
	if d := density(t, atBoundary); d != 0.75 {
		t.Fatalf("boundary dictionary density = %v, want exactly 0.75", d)
	}
	if !enabled(t, atBoundary) {
		t.Fatal("density exactly 0.75 declined (gate must be strict-greater)")
	}
	// Adding "dddd" fills the last slot: 16/20 = 0.8 > 0.75.
	overBoundary := append(append([]string(nil), atBoundary...), "dddd")
	if d := density(t, overBoundary); d <= 0.75 {
		t.Fatalf("saturated dictionary density = %v, want > 0.75", d)
	}
	if enabled(t, overBoundary) {
		t.Fatal("density above 0.75 accepted")
	}
}

func TestParseFilterModeVocabulary(t *testing.T) {
	for in, want := range map[string]FilterMode{
		"": FilterAuto, "auto": FilterAuto, "on": FilterOn, "off": FilterOff,
	} {
		got, err := ParseFilterMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFilterMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFilterMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestFilterWindowsSkippedCounter: scans over clean input must
// advance WindowsSkipped on the sequential, parallel, and stream
// paths, and the counter must be monotone.
func TestFilterWindowsSkippedCounter(t *testing.T) {
	m, err := CompileStrings([]string{"VIRUSSIGNATURE", "WORMSIGNATURES"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Stats().FilterEnabled {
		t.Fatal("filter not enabled")
	}
	data := []byte(strings.Repeat("benign traffic with nothing to find here. ", 200))
	if _, err := m.FindAll(data); err != nil {
		t.Fatal(err)
	}
	seq := m.Stats().WindowsSkipped
	if seq == 0 {
		t.Fatal("sequential scan skipped nothing")
	}
	if _, err := m.FindAllParallel(data, ParallelOptions{Workers: 3, ChunkBytes: 512}); err != nil {
		t.Fatal(err)
	}
	par := m.Stats().WindowsSkipped
	if par <= seq {
		t.Fatalf("parallel scan did not advance the counter: %d -> %d", seq, par)
	}
	s := m.NewStream()
	for off := 0; off < len(data); off += 100 {
		end := off + 100
		if end > len(data) {
			end = len(data)
		}
		s.Write(data[off:end])
	}
	if got := m.Stats().WindowsSkipped; got <= par {
		t.Fatalf("stream did not advance the counter: %d -> %d", par, got)
	}
}

// TestFilterFactorEngineEquivalence drives the factor-table fallback
// (minimum pattern length above the 64-bit window) end to end through
// the matcher.
func TestFilterFactorEngineEquivalence(t *testing.T) {
	long1 := strings.Repeat("abcdefgh", 9)       // 72 bytes
	long2 := strings.Repeat("zyxwvuts", 9) + "Q" // 73 bytes
	patterns := []string{long1, long2}
	data := []byte("noise " + long1 + " more noise " + long2 + strings.Repeat(" filler", 40) + long1)
	onM, err := CompileStrings(patterns, Options{Engine: EngineOptions{Filter: FilterOn}})
	if err != nil {
		t.Fatal(err)
	}
	if st := onM.Stats(); !st.FilterEnabled || st.FilterWindow != 72 {
		t.Fatalf("factor filter not live: %+v", st)
	}
	offM, err := CompileStrings(patterns, Options{Engine: EngineOptions{Filter: FilterOff}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := offM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("fixture matches = %d, want 3", len(want))
	}
	got, err := onM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "factor/FindAll", got, want)
	for _, chunk := range []int{1, 7, 64, 71, 72, 73, 200} {
		par, err := onM.FindAllParallel(data, ParallelOptions{Workers: 3, ChunkBytes: chunk})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "factor/FindAllParallel", par, want)
		rd, err := onM.ScanReader(bytes.NewReader(data), ParallelOptions{Workers: 2, ChunkBytes: chunk})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "factor/ScanReader", rd, want)
	}
	for cut := 0; cut <= len(data); cut += 13 {
		s := onM.NewStream()
		s.Write(data[:cut])
		s.Write(data[cut:])
		assertSameMatches(t, "factor/Stream", s.Matches(), want)
	}
}
