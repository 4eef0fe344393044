package compose

import (
	"math/rand"
	"reflect"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
)

// randomWords returns n patterns of 3-14 bytes drawn from alphabet.
func randomWords(rng *rand.Rand, n int, alphabet string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 3+rng.Intn(12))
		for j := range p {
			p[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = p
	}
	return out
}

// TestPartitionGreedy pins the packer's rule: each group's automaton
// fits the budget, its reported state count is that automaton's, and
// the next group's first pattern would not have fitted.
func TestPartitionGreedy(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pats := randomWords(rng, 50+rng.Intn(200), "abcdefgh")
		red, err := alphabet.ForDictionary(pats, false)
		if err != nil {
			t.Fatal(err)
		}
		budget := 20 + rng.Intn(300)
		groups, states, err := partitionFrom(pats, red, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		sub := func(ids []int) [][]byte {
			out := make([][]byte, len(ids))
			for i, id := range ids {
				out[i] = pats[id]
			}
			return out
		}
		next := 0
		for g, ids := range groups {
			if ids[0] != next {
				t.Fatalf("seed %d: group %d starts at %d, want %d", seed, g, ids[0], next)
			}
			next = ids[len(ids)-1] + 1
			n := dfa.TrieStates(sub(ids), red)
			if n != states[g] || n > budget {
				t.Fatalf("seed %d: group %d has %d states (reported %d, budget %d)", seed, g, n, states[g], budget)
			}
			if g+1 < len(groups) {
				if more := dfa.TrieStates(sub(append(ids, groups[g+1][0])), red); more <= budget {
					t.Fatalf("seed %d: group %d closed with room (%d states)", seed, g, more)
				}
			}
		}
		if next != len(pats) {
			t.Fatalf("seed %d: %d of %d patterns grouped", seed, next, len(pats))
		}
	}
}

// TestHostSlotSystem: a dictionary within the host cap composes as one
// slot, and its Cell model is exactly the Figure 3 tiling NewSystem
// builds without the cap — at the paper's 32-wide rows and at wider
// ones, whose tiles hold fewer states.
func TestHostSlotSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, tc := range map[string]struct {
		pats     [][]byte
		caseFold bool
	}{
		"width 32": {randomWords(rng, 400, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"), true},
		"width 64": {randomWords(rng, 300, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"), false},
	} {
		cfg := Config{CaseFold: tc.caseFold, HostTableBytes: 8 << 20}
		host, err := NewSystem(tc.pats, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := NewSystem(tc.pats, Config{CaseFold: tc.caseFold})
		if err != nil {
			t.Fatal(err)
		}
		if len(host.Slots) != 1 || !host.hostSlot(cfg) || len(tiled.Slots) < 2 {
			t.Fatalf("%s: host %d slots, tiled %d", name, len(host.Slots), len(tiled.Slots))
		}
		whole, err := dfa.FromPatterns(tc.pats, host.Red)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(host.Slots[0], whole) || host.MaxPatternLen != tiled.MaxPatternLen {
			t.Fatalf("%s: the host slot is not the dictionary's automaton", name)
		}
		cell, err := host.CellTiling(tc.pats, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell, tiled) {
			t.Fatalf("%s: CellTiling differs from the Figure 3 tiling", name)
		}
		states, err := host.CellTileStates(tc.pats, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tiled.CellTileStates(tc.pats, Config{})
		if !reflect.DeepEqual(states, want) {
			t.Fatalf("%s: tile states %v, want %v", name, states, want)
		}
		// A pinned tile budget is its own tiling, and so is a tiled
		// system.
		if pinned := (Config{MaxStatesPerTile: 5000}); host.hostSlot(pinned) || tiled.hostSlot(cfg) {
			t.Fatalf("%s: hostSlot misclassifies", name)
		}
		// A cap one state short of the automaton tiles the dictionary.
		short := Config{CaseFold: tc.caseFold, HostTableBytes: (whole.NumStates() - 1) * host.Red.KernelRowBytes()}
		over, err := NewSystem(tc.pats, short)
		if err != nil {
			t.Fatal(err)
		}
		over.overCap = 0
		if !reflect.DeepEqual(over, tiled) {
			t.Fatalf("%s: an over-cap dictionary did not keep its tiling", name)
		}
	}
}

// TestNewSystemDeltaHostSlot: deltas in and out of one host slot are
// bit-identical to NewSystem, and an append to an over-cap dictionary
// skips the one-slot attempt.
func TestNewSystemDeltaHostSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := randomWords(rng, 200, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	more := append(append([][]byte{}, base...), randomWords(rng, 200, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")...)
	most := append(append([][]byte{}, more...), randomWords(rng, 20, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")...)
	n := dfa.TrieStates(base, nil)
	cfg := Config{CaseFold: true, HostTableBytes: (n + 100) * 32 * 4}
	prev, err := NewSystem(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevPats := base
	for _, step := range []struct {
		name  string
		pats  [][]byte
		slots int // 0: more than one
	}{
		{"grow past the cap", more, 0},
		{"append while over it", most, 0},
		{"shrink under it", base, 1},
	} {
		got, reused, err := NewSystemDelta(step.pats, cfg, prev, prevPats)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSystem(step.pats, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.slotFP, want.slotFP = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: delta system differs from NewSystem", step.name)
		}
		if (step.slots == 1) != (len(got.Slots) == 1) || len(reused) != len(got.Slots) {
			t.Fatalf("%s: %d slots, %d reuse flags", step.name, len(got.Slots), len(reused))
		}
		if got.overCap != want.overCap || (step.slots == 0 && got.overCap == 0) {
			t.Fatalf("%s: over-cap mark %d, want %d", step.name, got.overCap, want.overCap)
		}
		prev, prevPats = got, step.pats
	}
}
