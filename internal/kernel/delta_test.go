package kernel

import (
	"bytes"
	"strings"
	"testing"

	"cellmatch/internal/compose"
)

// engineImage concatenates an engine's table images — the byte-level
// identity witness for the parallel and delta compile paths.
func engineImage(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range e.Tables {
		buf.Write(tab.Bytes())
	}
	return buf.Bytes()
}

func compileWorkers(t *testing.T, pats [][]byte, workers int) *Engine {
	t.Helper()
	sys, err := compose.NewSystem(pats, compose.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(sys, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// The tentpole invariant at the kernel tier: a parallel compile emits
// the same bytes as a sequential one, table for table, across worker
// counts and dictionary shapes.
func TestCompileParallelIdentical(t *testing.T) {
	dicts := [][][]byte{
		toBytes([]string{"virus", "worm", "trojan", "rootkit"}),
		randomShardDict(257, 3),
	}
	for di, pats := range dicts {
		seq := compileWorkers(t, pats, 1)
		want := engineImage(t, seq)
		for _, w := range []int{2, 3, 8} {
			par := compileWorkers(t, pats, w)
			if !bytes.Equal(engineImage(t, par), want) {
				t.Fatalf("dict %d: workers=%d image differs from sequential", di, w)
			}
			if par.Stride() != seq.Stride() {
				t.Fatalf("dict %d: workers=%d stride %d, want %d", di, w, par.Stride(), seq.Stride())
			}
		}
	}
}

func TestCompileShardedParallelIdentical(t *testing.T) {
	_, pats := shardedFixture(t, false)
	budget := shardedFixtureBudget(t, pats, false)
	seq, err := CompileSharded(pats, ShardConfig{MaxTableBytes: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := CompileSharded(pats, ShardConfig{MaxTableBytes: budget, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(par.Bytes(), seq.Bytes()) {
			t.Fatalf("workers=%d sharded image differs from sequential", w)
		}
	}
}

func shardedFixtureBudget(t *testing.T, pats [][]byte, fold bool) int {
	t.Helper()
	red := reductionFor(t, pats, fold)
	return 16 * red.KernelRowBytes()
}

// randomShardDict builds a deterministic dictionary large enough to
// exercise multi-slot systems without trig functions or rand.
func randomShardDict(n int, seed uint32) [][]byte {
	x := seed | 1
	out := make([][]byte, n)
	for i := range out {
		l := 3 + int(x%9)
		p := make([]byte, l)
		for j := range p {
			x = x*1664525 + 1013904223
			p[j] = 'a' + byte((x>>16)%17)
		}
		out[i] = p
	}
	return out
}

// Appending a pattern must leave the untouched shards' engines reused
// by pointer, and the delta-compiled image byte-identical to a cold
// compile of the new dictionary.
func TestCompileShardedDeltaAppend(t *testing.T) {
	prevPats := toBytes([]string{
		"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd",
		"aaaabbbb", "ccccdddd", "abcd", "dcba",
	})
	budget := shardedFixtureBudget(t, prevPats, false)
	cfg := ShardConfig{MaxTableBytes: budget, MaxShards: MaxShardsLimit}
	prev, err := CompileSharded(prevPats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newPats := append(append([][]byte{}, prevPats...), []byte("ddddcccc"))

	cold, err := CompileSharded(newPats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta, reused, err := CompileShardedDelta(newPats, cfg, prev, prevPats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(delta.Bytes(), cold.Bytes()) {
		t.Fatal("delta sharded image differs from cold compile")
	}
	nReused := 0
	for si, r := range reused {
		if r {
			nReused++
			// Reuse must be by pointer: the donor engine is adopted, not
			// recompiled.
			found := false
			for _, e := range prev.Engines {
				if e == delta.Engines[si] {
					found = true
				}
			}
			if !found {
				t.Fatalf("shard %d marked reused but engine is not prev's", si)
			}
		}
	}
	if nReused == 0 {
		t.Fatalf("append reused no shards (mask %v, %d shards)", reused, len(reused))
	}
	// Scan behavior unchanged versus the reference.
	data := []byte(strings.Repeat("aaaaaaaaxddddccccxabcd", 20))
	assertMatchesEqual(t, "delta FindAll", delta.FindAll(data), cold.FindAll(data))
}

// A prev without a plan (loaded from a serialized image) must fall
// back to a cold compile with an all-false mask instead of guessing.
func TestCompileShardedDeltaNoPlan(t *testing.T) {
	prevPats := toBytes([]string{
		"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd",
		"aaaabbbb", "ccccdddd", "abcd", "dcba",
	})
	budget := shardedFixtureBudget(t, prevPats, false)
	cfg := ShardConfig{MaxTableBytes: budget, MaxShards: MaxShardsLimit}
	prev, err := CompileSharded(prevPats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ShardedFromBytes(prev.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	delta, reused, err := CompileShardedDelta(prevPats, cfg, loaded, prevPats)
	if err != nil {
		t.Fatal(err)
	}
	for si, r := range reused {
		if r {
			t.Fatalf("plan-less prev reused shard %d", si)
		}
	}
	if !bytes.Equal(delta.Bytes(), prev.Bytes()) {
		t.Fatal("cold fallback image differs")
	}
}

// withPair must never mutate the donor table, and must be a no-op when
// the stride already matches.
func TestWithPairCopySemantics(t *testing.T) {
	pats := toBytes([]string{"ab", "ba", "aab"})
	sys, err := compose.NewSystem(pats, compose.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(sys, Options{Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := eng.Tables[0]
	if tab.Pair == nil {
		t.Fatal("stride-2 compile produced no pair table")
	}
	if got := tab.withPair(true, 1); got != tab {
		t.Fatal("withPair(true) on a paired table must be identity")
	}
	stripped := tab.withPair(false, 1)
	if stripped == tab || stripped.Pair != nil {
		t.Fatal("withPair(false) must return a pair-less copy")
	}
	if tab.Pair == nil {
		t.Fatal("withPair mutated the donor table")
	}
	regrown := stripped.withPair(true, 2)
	if regrown == stripped || regrown.Pair == nil {
		t.Fatal("withPair(true) must rebuild the pair table")
	}
	if !bytes.Equal(regrown.Bytes(), tab.Bytes()) {
		t.Fatal("pair rebuild changed the serialized image")
	}
}
