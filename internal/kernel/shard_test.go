package kernel

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
)

func reductionFor(t *testing.T, patterns [][]byte, fold bool) *alphabet.Reduction {
	t.Helper()
	red, err := alphabet.ForDictionary(patterns, fold)
	if err != nil {
		t.Fatal(err)
	}
	return red
}

func toBytes(ps []string) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = []byte(p)
	}
	return out
}

func TestPlanShardsEmptyDictionary(t *testing.T) {
	if _, err := PlanShards(nil, alphabet.Identity(), 1<<20, 4); err == nil {
		t.Fatal("empty dictionary accepted")
	}
}

func TestPlanShardsPatternLargerThanBudget(t *testing.T) {
	pats := toBytes([]string{strings.Repeat("a", 64), "bb"})
	red := reductionFor(t, pats, false)
	// 65 trie states x width x 4 cannot fit a 256-byte budget.
	_, err := PlanShards(pats, red, 256, 8)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized pattern: err = %v, want ErrBudget", err)
	}
}

func TestPlanShardsDegenerateSingleShard(t *testing.T) {
	pats := toBytes([]string{"virus", "worm", "trojan"})
	red := reductionFor(t, pats, false)
	plan, err := PlanShards(pats, red, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 1 {
		t.Fatalf("K=1 plan produced %d shards", len(plan.Shards))
	}
	if got := len(plan.Shards[0]); got != len(pats) {
		t.Fatalf("single shard holds %d of %d patterns", got, len(pats))
	}
	if plan.EstBytes[0] <= 0 {
		t.Fatalf("estimate missing: %+v", plan.EstBytes)
	}
}

func TestPlanShardsMaxShardsExceeded(t *testing.T) {
	// Four disjoint 8-byte patterns, a budget that fits about one each
	// (a lone pattern costs 9 states x width 2 x 4 = 72 bytes; any two
	// cost 17 states x width 4 x 4 = 272), capped at 2 shards: the
	// plan must refuse with ErrBudget.
	pats := toBytes([]string{"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd"})
	red := reductionFor(t, pats, false)
	_, err := PlanShards(pats, red, 100, 2)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("over-cap plan: err = %v, want ErrBudget", err)
	}
}

func TestPlanShardsAssignsEveryPatternOnce(t *testing.T) {
	pats := toBytes([]string{
		"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd",
		"aaaaaaaa", // duplicate of pattern 0
		"aaaabbbb", "ccccdddd",
	})
	red := reductionFor(t, pats, false)
	width := alphabet.RowWidth(red.Classes)
	plan, err := PlanShards(pats, red, 16*width*4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) < 2 {
		t.Fatalf("budget did not force sharding: %d shards", len(plan.Shards))
	}
	seen := make([]bool, len(pats))
	for _, ids := range plan.Shards {
		for _, id := range ids {
			if id < 0 || id >= len(pats) || seen[id] {
				t.Fatalf("pattern %d missing or duplicated in plan %v", id, plan.Shards)
			}
			seen[id] = true
		}
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("pattern %d unassigned in plan %v", id, plan.Shards)
		}
	}
}

func TestPlanShardsPrefixAffinity(t *testing.T) {
	// Patterns sharing a long prefix must land in the same shard (the
	// sorted packing order makes them adjacent), so the shared prefix
	// costs its trie states once.
	pats := toBytes([]string{
		"prefix-shared-aa", "zzzzzzzzzzzzzzzz", "prefix-shared-bb", "qqqqqqqqqqqqqqqq",
	})
	red := reductionFor(t, pats, false)
	width := alphabet.RowWidth(red.Classes)
	// Room for ~2 disjoint 16-byte patterns per shard; the two
	// prefix-sharers together cost barely more than one.
	plan, err := PlanShards(pats, red, 40*width*4, 8)
	if err != nil {
		t.Fatal(err)
	}
	shardOf := make(map[int]int)
	for si, ids := range plan.Shards {
		for _, id := range ids {
			shardOf[id] = si
		}
	}
	if shardOf[0] != shardOf[2] {
		t.Fatalf("prefix-sharing patterns split across shards %d and %d (plan %v)",
			shardOf[0], shardOf[2], plan.Shards)
	}
}

// referenceScan is the unsharded oracle: the composed system's own
// sorted global-id scan.
func referenceScan(t *testing.T, pats [][]byte, fold bool, data []byte) []dfa.Match {
	t.Helper()
	sys, err := compose.NewSystem(pats, compose.Config{CaseFold: fold})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertMatchesEqual(t *testing.T, ctx string, got, want []dfa.Match) {
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

func shardedFixture(t *testing.T, fold bool) (*Sharded, [][]byte) {
	t.Helper()
	pats := toBytes([]string{
		"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd",
		"aaaabbbb", "ccccdddd", "abcd", "dcba",
	})
	red := reductionFor(t, pats, fold)
	budget := 16 * red.KernelRowBytes()
	sh, err := CompileSharded(pats, ShardConfig{CaseFold: fold, MaxTableBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() < 2 {
		t.Fatalf("fixture budget did not force sharding: %d shards", sh.Shards())
	}
	if sh.MaxShardBytes() <= 0 || sh.MaxShardBytes() > budget || sh.TableBytes() < sh.MaxShardBytes() {
		t.Fatalf("shard footprints out of range: max %d, total %d, budget %d",
			sh.MaxShardBytes(), sh.TableBytes(), budget)
	}
	return sh, pats
}

func TestShardedFindAllEquivalence(t *testing.T) {
	for _, fold := range []bool{false, true} {
		sh, pats := shardedFixture(t, fold)
		data := []byte(strings.Repeat("aaaaaaaabbbbbbbbxabcdxccccddddxdcba", 30))
		want := referenceScan(t, pats, fold, data)
		if len(want) == 0 {
			t.Fatal("fixture traffic has no matches")
		}
		assertMatchesEqual(t, "FindAll", sh.FindAll(data), want)
		if got := sh.Count(data); got != len(want) {
			t.Fatalf("Count = %d, want %d", got, len(want))
		}
		// Every prefix too, so chunk boundaries of the carry loop land
		// on every offset class.
		for n := 0; n <= len(data); n += 7 {
			assertMatchesEqual(t, "prefix", sh.FindAll(data[:n]), referenceScan(t, pats, fold, data[:n]))
		}
	}
}

func TestShardedChunkCarryBoundaries(t *testing.T) {
	// Matches straddling the ShardChunkBytes boundary must survive the
	// carry: plant one right across it.
	sh, pats := shardedFixture(t, false)
	data := make([]byte, ShardChunkBytes+64)
	for i := range data {
		data[i] = 'x'
	}
	copy(data[ShardChunkBytes-4:], []byte("aaaaaaaa")) // straddles
	copy(data[ShardChunkBytes+20:], []byte("dcba"))
	want := referenceScan(t, pats, false, data)
	if len(want) < 2 {
		t.Fatalf("planted %d matches", len(want))
	}
	assertMatchesEqual(t, "straddle", sh.FindAll(data), want)
}

// Duplicates straddling shards: build an explicit plan that forces two
// copies of the same pattern into different shards and check the
// merged stream still reports both global ids, exactly like the
// unsharded scan.
func TestShardedDuplicateStraddle(t *testing.T) {
	pats := toBytes([]string{"aaaa", "bbbb", "aaaa"})
	plan := [][]int{{0, 1}, {2}}
	var sh Sharded
	sh.Plan = plan
	for _, ids := range plan {
		sub := make([][]byte, len(ids))
		for i, id := range ids {
			sub[i] = pats[id]
		}
		sys, err := compose.NewSystem(sub, compose.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for slot, local := range sys.SlotPatterns {
			global := make([]int, len(local))
			for j, l := range local {
				global[j] = ids[l]
			}
			sys.SlotPatterns[slot] = global
		}
		eng, err := Compile(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sh.Engines = append(sh.Engines, eng)
	}
	data := []byte("xxaaaaxxbbbbxxaaaa")
	want := referenceScan(t, pats, false, data)
	assertMatchesEqual(t, "duplicate straddle", sh.FindAll(data), want)
	// Both ids 0 and 2 must appear for every "aaaa" occurrence.
	var ids []int32
	for _, m := range sh.FindAll(data) {
		ids = append(ids, m.Pattern)
	}
	saw0, saw2 := false, false
	for _, id := range ids {
		saw0 = saw0 || id == 0
		saw2 = saw2 || id == 2
	}
	if !saw0 || !saw2 {
		t.Fatalf("duplicate ids lost: %v", ids)
	}
}

func TestShardedScanShardChunkDedupe(t *testing.T) {
	sh, pats := shardedFixture(t, false)
	data := []byte(strings.Repeat("aaaaaaaaccccddddabcd", 20))
	want := referenceScan(t, pats, false, data)
	// Shard x chunk work items (the parallel engine's unit):
	// overlap-prefixed pieces with dedupe reassemble to the exact match
	// set, one shard at a time.
	ov := sh.MaxPatternLen() - 1
	step := 37
	var perShard []dfa.Match
	for si := 0; si < sh.Shards(); si++ {
		for start := 0; start < len(data); start += step {
			end := min(start+step, len(data))
			pre := min(ov, start)
			perShard = append(perShard, sh.ScanUnit(si, data[start-pre:end], start-pre, pre)...)
		}
	}
	dfa.SortMatches(perShard)
	assertMatchesEqual(t, "ScanUnit", perShard, want)
}

func TestShardedImageRoundTrip(t *testing.T) {
	sh, pats := shardedFixture(t, true)
	img := sh.Bytes()
	back, err := ShardedFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Shards() != sh.Shards() {
		t.Fatalf("loaded %d shards, want %d", back.Shards(), sh.Shards())
	}
	if back.MaxPatternLen() != sh.MaxPatternLen() {
		t.Fatalf("MaxPatternLen %d, want %d", back.MaxPatternLen(), sh.MaxPatternLen())
	}
	data := []byte(strings.Repeat("AAAAAAAAbbbbBBBBccccDDDDabcd", 25))
	assertMatchesEqual(t, "loaded", back.FindAll(data), sh.FindAll(data))
	_ = pats

	// Corruption must be rejected, never panic.
	if _, err := ShardedFromBytes(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := ShardedFromBytes([]byte("CMKRN1\x00")); err == nil {
		t.Fatal("table magic accepted as sharded image")
	}
	for cut := 0; cut < len(img); cut += 11 {
		if _, err := ShardedFromBytes(img[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ShardedFromBytes(append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// mapTrie is the map-keyed goto trie the planner's node counter
// replaced, kept as its oracle.
type mapTrie struct {
	children map[[2]int32]int32
	nodes    int32
}

func (t *mapTrie) insert(p []byte) {
	cur := int32(0)
	for _, c := range p {
		k := [2]int32{cur, int32(c)}
		next, ok := t.children[k]
		if !ok {
			t.nodes++
			next = t.nodes
			t.children[k] = next
		}
		cur = next
	}
}

// TestShardTrieCountsSortedRuns holds the planner's prefix counter to
// a real trie: over runs of sorted patterns (duplicates and patterns
// that prefix others included), wouldAdd and the running node count
// agree at every step.
func TestShardTrieCountsSortedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		pats := make([][]byte, 1+rng.Intn(60))
		for i := range pats {
			pats[i] = make([]byte, 1+rng.Intn(6))
			for j := range pats[i] {
				pats[i][j] = byte(rng.Intn(3))
			}
		}
		slices.SortFunc(pats, bytes.Compare)
		got := newShardTrie()
		want := &mapTrie{children: map[[2]int32]int32{}}
		for i, p := range pats {
			before := want.nodes
			want.insert(p)
			if add := got.wouldAdd(p); add != int(want.nodes-before) {
				t.Fatalf("trial %d pattern %d: wouldAdd %d, trie grew %d", trial, i, add, want.nodes-before)
			}
			got.insert(p)
			if got.nodes != int(want.nodes)+1 {
				t.Fatalf("trial %d pattern %d: %d nodes, trie has %d", trial, i, got.nodes, want.nodes+1)
			}
		}
	}
}
