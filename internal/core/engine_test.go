package core

import (
	"bytes"
	"strings"
	"testing"
)

// engineMatchers compiles the same dictionary twice: once with the
// dense kernel (Stride pinned to 1 so these suites keep exercising
// the 1-byte loops; the stride-2 rung has its own equivalence matrix)
// and once forced onto the stt/dfa path. The skip-scan front-end is
// pinned off so these suites keep exercising the raw engine loops
// (the filter has its own equivalence matrix).
func engineMatchers(t *testing.T, patterns []string, caseFold bool) (kernelM, sttM *Matcher) {
	t.Helper()
	opts := Options{CaseFold: caseFold, Engine: EngineOptions{Filter: FilterOff, Stride: 1}}
	kernelM, err := CompileStrings(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kernelM.Stats().Engine != "kernel" {
		t.Fatal("default compile did not select the kernel engine")
	}
	opts.Engine.DisableKernel = true
	sttM, err = CompileStrings(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sttM.Stats().Engine != "stt" {
		t.Fatal("DisableKernel did not select the stt engine")
	}
	return kernelM, sttM
}

func assertSameMatches(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d is %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestKernelSplitPointEquivalence drives the 1-byte loops through
// every input prefix length, so the lane boundaries of the prefixes
// past the lane rule's cut land on different bytes: the serial loop
// (InterleaveK 1) and the lane rule must agree with the stt path
// exactly. Runs clean under -race (the lane loop is single-goroutine
// by construction). internal/kernel drives the lane loop itself at
// every length.
func TestKernelSplitPointEquivalence(t *testing.T) {
	dict := []string{"abra", "abracadabra", "cadab", "ra r"}
	data := []byte(strings.Repeat("abracadabra rabcad ", 60))
	kernelM, sttM := engineMatchers(t, dict, false)
	var lanes []*Matcher
	for _, k := range []int{0, 1} {
		m, err := CompileStrings(dict, Options{Engine: EngineOptions{InterleaveK: k, Filter: FilterOff, Stride: 1}})
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, m)
	}
	for n := 0; n <= len(data); n++ {
		prefix := data[:n]
		want, err := sttM.FindAll(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lanes {
			got, err := m.FindAll(prefix)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "1-byte loops", got, want)
		}
		got, err := kernelM.FindAll(prefix)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "auto", got, want)
	}
}

// The parallel engine with the kernel underneath must agree at every
// chunk size, i.e. with the worker split point on every byte.
func TestKernelParallelSplitPoints(t *testing.T) {
	dict := []string{"abra", "abracadabra", "dabr"}
	data := []byte(strings.Repeat("abracadabra ", 12))
	kernelM, sttM := engineMatchers(t, dict, false)
	want, err := sttM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test data has no matches")
	}
	for chunk := 1; chunk <= len(data); chunk++ {
		got, err := kernelM.FindAllParallel(data, ParallelOptions{Workers: 3, ChunkBytes: chunk})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "parallel", got, want)
		streamed, err := kernelM.ScanReader(bytes.NewReader(data), ParallelOptions{Workers: 2, ChunkBytes: chunk})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "reader", streamed, want)
	}
}

// Stream over the kernel engine must agree with the stt stream at
// every two-part split of the input.
func TestKernelStreamSplitPoints(t *testing.T) {
	dict := []string{"virus", "us vi", "rus"}
	data := []byte("virus us virus viruses rus")
	kernelM, sttM := engineMatchers(t, dict, false)
	ref := sttM.NewStream()
	ref.Write(data)
	want := ref.Matches()
	if len(want) == 0 {
		t.Fatal("test data has no matches")
	}
	for cut := 0; cut <= len(data); cut++ {
		s := kernelM.NewStream()
		s.Write(data[:cut])
		s.Write(data[cut:])
		assertSameMatches(t, "stream", s.Matches(), want)
		if s.BytesSeen() != len(data) {
			t.Fatalf("cut %d: BytesSeen %d", cut, s.BytesSeen())
		}
	}
}

// Stats must surface the engine choice, alphabet classes, and dense
// table residency without callers digging into internal packages.
func TestStatsEngineFields(t *testing.T) {
	kernelM, sttM := engineMatchers(t, []string{"virus", "worm"}, true)
	ks := kernelM.Stats()
	if ks.Engine != "kernel" || ks.KernelTableBytes <= 0 {
		t.Fatalf("kernel stats = %+v", ks)
	}
	if !ks.TableFitsL1 || !ks.TableFitsL2 {
		t.Fatalf("tiny dictionary should be L1/L2 resident: %+v", ks)
	}
	if ks.AlphabetUsed < 2 {
		t.Fatalf("alphabet classes = %d", ks.AlphabetUsed)
	}
	if ks.DenseTableBudget <= 0 {
		t.Fatalf("budget not reported: %+v", ks)
	}
	ss := sttM.Stats()
	if ss.Engine != "stt" || ss.KernelTableBytes != 0 {
		t.Fatalf("stt stats = %+v", ss)
	}
	// A budget too small for the table forces the stt fallback, and
	// Stats reports it.
	tiny, err := CompileStrings([]string{"virus", "worm"}, Options{
		Engine: EngineOptions{MaxTableBytes: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.Stats(); got.Engine != "stt" || got.DenseTableBudget != 16 {
		t.Fatalf("over-budget stats = %+v", got)
	}
}

// A saved artifact reloads with the kernel engine live and scanning
// identically — under default (auto) stride that is the stride-2 rung.
func TestPersistRebuildsEngine(t *testing.T) {
	m, err := CompileStrings([]string{"virus", "worm"}, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Engine != "stride2" {
		t.Fatalf("default compile engine = %q, want stride2", m.Stats().Engine)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats().Engine != "stride2" {
		t.Fatalf("loaded engine = %q", back.Stats().Engine)
	}
	data := []byte("a VIRUS in a worm in a virus")
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "loaded", got, want)

	// EngineOptions survive the artifact: a matcher saved with the
	// kernel disabled (or a bounded budget) must load the same way.
	off, err := CompileStrings([]string{"virus"}, Options{
		Engine: EngineOptions{DisableKernel: true, MaxTableBytes: 1 << 16, InterleaveK: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := off.Save(&buf); err != nil {
		t.Fatal(err)
	}
	offBack, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st := offBack.Stats(); st.Engine != "stt" || st.DenseTableBudget != 1<<16 {
		t.Fatalf("engine options dropped by Save/Load: %+v", st)
	}
}

// Stats memoizes the encoded stt size on first use: repeated calls
// agree, and a call after the first encodes nothing (allocates
// nothing), so a /stats poll costs no table encodes.
func TestStatsMemoizesSTTBytes(t *testing.T) {
	m, err := CompileStrings([]string{"virus", "worm", "trojan horse"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := m.Stats()
	if first.STTBytes <= 0 {
		t.Fatalf("STTBytes %d, want > 0", first.STTBytes)
	}
	if again := m.Stats(); again != first {
		t.Fatalf("repeated Stats differ: %+v vs %+v", again, first)
	}
	if allocs := testing.AllocsPerRun(5, func() { m.Stats() }); allocs != 0 {
		t.Fatalf("Stats after the first call allocated %.0f times: it re-encodes", allocs)
	}
}
