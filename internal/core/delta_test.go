package core

import (
	"bytes"
	"strings"
	"testing"

	"cellmatch/internal/kernel"
)

// matcherImage serializes everything observable about a compiled
// matcher: the Save artifact plus the live engine's table images. Two
// matchers with equal images are indistinguishable — the byte-identity
// witness for the delta compiler.
func matcherImage(t *testing.T, m *Matcher) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	switch v := m.v.(type) {
	case *kernel.Engine:
		for _, tab := range v.Tables {
			buf.Write(tab.Bytes())
		}
	case *kernel.Sharded:
		buf.Write(v.Bytes())
	}
	return buf.Bytes()
}

// assertDeltaIdentical proves a delta recompile against prev matches a
// cold compile of the new dictionary bit for bit, and cross-checks a
// scan. Returns the delta stats for tier-specific assertions.
func assertDeltaIdentical(t *testing.T, ctx string, prev *Matcher, newPats [][]byte, data []byte) *DeltaStats {
	t.Helper()
	cold, err := Compile(newPats, prev.Options())
	if err != nil {
		t.Fatalf("%s: cold compile: %v", ctx, err)
	}
	delta, ds, err := prev.RecompileDelta(newPats)
	if err != nil {
		t.Fatalf("%s: delta compile: %v", ctx, err)
	}
	if !bytes.Equal(matcherImage(t, delta), matcherImage(t, cold)) {
		t.Fatalf("%s: delta image differs from cold compile", ctx)
	}
	if delta.EngineName() != cold.EngineName() {
		t.Fatalf("%s: delta engine %q, cold %q", ctx, delta.EngineName(), cold.EngineName())
	}
	want, err := cold.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := delta.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
	return ds
}

func deltaCoreDict(n int, seed uint32) [][]byte {
	x := seed | 1
	out := make([][]byte, n)
	for i := range out {
		l := 4 + int(x%7)
		p := make([]byte, l)
		for j := range p {
			x = x*1664525 + 1013904223
			p[j] = 'a' + byte((x>>16)%11)
		}
		out[i] = p
	}
	return out
}

func TestRecompileDeltaKernelTier(t *testing.T) {
	// Pinned Figure 3 tiles: slot reuse needs more than one slot, and
	// the whole dictionary would otherwise fit one host slot.
	opts := Options{MaxStatesPerTile: 1520, Engine: EngineOptions{Filter: FilterOff, Stride: 1}}
	pats := deltaCoreDict(300, 5)
	prev, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.EngineName() != "kernel" {
		t.Fatalf("fixture landed on %q", prev.EngineName())
	}
	newPats := append(append([][]byte{}, pats...), deltaCoreDict(10, 77)...)
	data := bytes.Repeat(append([]byte("x"), newPats[3]...), 50)
	ds := assertDeltaIdentical(t, "kernel append", prev, newPats, data)
	if ds.SlotsReused == 0 {
		t.Fatalf("append reused no slots: %+v", ds)
	}
}

func TestRecompileDeltaStride2Tier(t *testing.T) {
	opts := Options{Engine: EngineOptions{Filter: FilterOff, Stride: 2}}
	pats := [][]byte{[]byte("virus"), []byte("worm"), []byte("trojan")}
	prev, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.EngineName() != "stride2" {
		t.Fatalf("fixture landed on %q", prev.EngineName())
	}
	newPats := append(append([][]byte{}, pats...), []byte("rootkit"))
	data := []byte(strings.Repeat("xvirusxrootkitxworm", 40))
	assertDeltaIdentical(t, "stride2 append", prev, newPats, data)
}

func TestRecompileDeltaShardedTier(t *testing.T) {
	// A small per-shard budget pushes the dictionary onto the sharded
	// tier (mirrors sharded_test fixtures).
	opts := Options{Engine: EngineOptions{Filter: FilterOff, Stride: 1, MaxTableBytes: 4096}}
	pats := deltaCoreDict(400, 9)
	prev, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.EngineName() != "sharded" {
		t.Skipf("fixture landed on %q, want sharded", prev.EngineName())
	}
	newPats := append(append([][]byte{}, pats...), deltaCoreDict(6, 123)...)
	data := bytes.Repeat(append([]byte("q"), newPats[7]...), 40)
	ds := assertDeltaIdentical(t, "sharded append", prev, newPats, data)
	if ds.ShardsReused == 0 {
		t.Fatalf("sharded append reused no shards: %+v", ds)
	}
}

func TestRecompileDeltaSTTAndFilterTiers(t *testing.T) {
	// stt: kernel disabled outright.
	opts := Options{Engine: EngineOptions{DisableKernel: true, Filter: FilterOff}}
	pats := deltaCoreDict(100, 21)
	prev, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.EngineName() != "stt" {
		t.Fatalf("fixture landed on %q", prev.EngineName())
	}
	newPats := append(append([][]byte{}, pats...), []byte("gggggg"))
	assertDeltaIdentical(t, "stt append", prev, newPats, []byte(strings.Repeat("gggggg-", 30)))

	// filter: qualifying dictionary with the skip-scan front-end forced
	// on; the filter itself always rebuilds (it is cheap) but the
	// verifier engine underneath must still patch.
	fopts := Options{Engine: EngineOptions{Filter: FilterOn, Stride: 1}}
	fpats := [][]byte{[]byte("signature"), []byte("malware"), []byte("heuristic")}
	fprev, err := Compile(fpats, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if !fprev.FilterActive() {
		t.Fatal("filter fixture has no live filter")
	}
	fnew := append(append([][]byte{}, fpats...), []byte("quarantine"))
	assertDeltaIdentical(t, "filter append", fprev, fnew, []byte(strings.Repeat("xxmalwarexxquarantinexx", 25)))
}

func TestAddRemovePatterns(t *testing.T) {
	// A small tile budget forces several slots so an append leaves
	// reusable prefix slots behind.
	pats := deltaCoreDict(120, 31)
	prev, err := Compile(pats, Options{MaxStatesPerTile: 150, Engine: EngineOptions{Filter: FilterOff}})
	if err != nil {
		t.Fatal(err)
	}
	// Stay inside the fixture's byte alphabet ('a'..'k'): a new byte
	// class would change the reduction and force a cold rebuild.
	added, ds, err := prev.AddPatterns([][]byte{[]byte("kjihg"), []byte("aacca")})
	if err != nil {
		t.Fatal(err)
	}
	if added.NumPatterns() != len(pats)+2 {
		t.Fatalf("AddPatterns count %d", added.NumPatterns())
	}
	if ds.SlotsReused == 0 {
		t.Fatalf("AddPatterns reused nothing: %+v", ds)
	}
	// Existing ids must be stable under append.
	for i := range pats {
		if !bytes.Equal(added.Pattern(i), pats[i]) {
			t.Fatalf("pattern %d moved under AddPatterns", i)
		}
	}

	removed, _, err := added.RemovePatterns([]int{0, added.NumPatterns() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if removed.NumPatterns() != added.NumPatterns()-2 {
		t.Fatalf("RemovePatterns count %d", removed.NumPatterns())
	}
	// Id renumbering: the old pattern 1 is the new pattern 0.
	if !bytes.Equal(removed.Pattern(0), added.Pattern(1)) {
		t.Fatal("RemovePatterns did not shift ids down")
	}
	// Removal result must equal a cold compile of the surviving list.
	survivors := make([][]byte, 0, removed.NumPatterns())
	for i := 1; i < added.NumPatterns()-1; i++ {
		survivors = append(survivors, added.Pattern(i))
	}
	cold, err := Compile(survivors, prev.Options())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(matcherImage(t, removed), matcherImage(t, cold)) {
		t.Fatal("RemovePatterns image differs from cold compile")
	}

	if _, _, err := prev.AddPatterns(nil); err == nil {
		t.Fatal("empty AddPatterns accepted")
	}
	if _, _, err := prev.RemovePatterns([]int{-1}); err == nil {
		t.Fatal("out-of-range RemovePatterns accepted")
	}
	all := make([]int, prev.NumPatterns())
	for i := range all {
		all[i] = i
	}
	if _, _, err := prev.RemovePatterns(all); err == nil {
		t.Fatal("emptying RemovePatterns accepted")
	}
}

func TestRecompileDeltaRegexRebuildsCold(t *testing.T) {
	prev, err := CompileRegexSearch([]string{"abc", "a[xy]{1,2}z"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := [][]byte{[]byte("abc"), []byte("a[xy]{1,2}z"), []byte("q{2,3}")}
	delta, ds, err := prev.RecompileDelta(next)
	if err != nil {
		t.Fatal(err)
	}
	if ds.SlotsReused != 0 {
		t.Fatalf("regex delta claims reuse: %+v", ds)
	}
	if !delta.IsRegex() {
		t.Fatal("regex delta lost regex mode")
	}
	got, err := delta.FindAll([]byte("xxabcxxqqzz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("regex delta matcher finds nothing")
	}
}

func TestPatternSetFingerprint(t *testing.T) {
	a := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	b := [][]byte{[]byte("three"), []byte("one"), []byte("two")}
	if PatternSetFingerprint(a) != PatternSetFingerprint(b) {
		t.Fatal("order must not change the set fingerprint")
	}
	c := [][]byte{[]byte("one"), []byte("two")}
	if PatternSetFingerprint(a) == PatternSetFingerprint(c) {
		t.Fatal("different sets share a fingerprint")
	}
	// Duplicates are counted: {x,x} != {x}.
	d1 := [][]byte{[]byte("x"), []byte("x")}
	d2 := [][]byte{[]byte("x")}
	if PatternSetFingerprint(d1) == PatternSetFingerprint(d2) {
		t.Fatal("multiset multiplicity ignored")
	}
	// Framing: {"ab","c"} != {"a","bc"}.
	f1 := [][]byte{[]byte("ab"), []byte("c")}
	f2 := [][]byte{[]byte("a"), []byte("bc")}
	if PatternSetFingerprint(f1) == PatternSetFingerprint(f2) {
		t.Fatal("length framing missing")
	}
	m, err := Compile(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.PatternSetFingerprint() != PatternSetFingerprint(a) {
		t.Fatal("matcher fingerprint disagrees with free function")
	}
}

func TestDeltaStatsReused(t *testing.T) {
	if (DeltaStats{}).Reused() {
		t.Fatal("empty stats report reuse")
	}
	if !(DeltaStats{SlotsReused: 1}).Reused() {
		t.Fatal("slot reuse not reported")
	}
	if !(DeltaStats{ShardsReused: 2}).Reused() {
		t.Fatal("shard reuse not reported")
	}
}

// A DisableKernel matcher has no engine to patch; the delta path must
// still produce a correct (stt-tier) matcher.
func TestRecompileDeltaDisableKernel(t *testing.T) {
	opts := Options{Engine: EngineOptions{DisableKernel: true}}
	m, err := CompileStrings([]string{"alpha", "beta"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := m.RecompileDelta([][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CompileStrings([]string{"alpha", "beta", "gamma"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := m2.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := cold.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("kernel-less delta image differs from cold compile")
	}
}
