package core

import (
	"bytes"
	"reflect"
	"testing"

	"cellmatch/internal/compose"
	"cellmatch/internal/workload"
)

// hostDict returns n uppercase patterns of 10-16 bytes from an LCG:
// little prefix sharing, so the trie has about 13 states per pattern.
func hostDict(n int, seed uint32) [][]byte {
	x := seed | 1
	out := make([][]byte, n)
	for i := range out {
		x = x*1664525 + 1013904223
		p := make([]byte, 10+int(x>>16)%7)
		for j := range p {
			x = x*1664525 + 1013904223
			p[j] = 'A' + byte((x>>16)%26)
		}
		out[i] = p
	}
	return out
}

// plantedTraffic is noise with every 7th pattern planted, some in
// lower case.
func plantedTraffic(pats [][]byte) []byte {
	var buf bytes.Buffer
	for i := 0; i < len(pats); i += 7 {
		buf.WriteString("..noise;")
		if i%2 == 0 {
			buf.Write(bytes.ToLower(pats[i]))
		} else {
			buf.Write(pats[i])
		}
	}
	return buf.Bytes()
}

func assertMatchesLike(t *testing.T, ctx string, got, want *Matcher, data []byte) {
	t.Helper()
	g, err := got.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %d matches, stt path %d", ctx, len(g), len(w))
	}
}

// TestHostSlotRule pins which compiles scan one host automaton: a
// literal dictionary whose whole dense table fits the kernel budget
// compiles to one slot, while an over-budget dictionary, the stt path,
// CompressedOn and a pinned tile budget keep the Figure 3 tiling
// byte for byte. Every one matches like the stt path.
func TestHostSlotRule(t *testing.T) {
	pats := hostDict(2300, 11)
	data := plantedTraffic(pats)
	ref, err := Compile(pats, Options{CaseFold: true, Engine: EngineOptions{DisableKernel: true}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(pats, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	live := m.LiveStats()
	if m.cellStates != nil {
		t.Fatal("LiveStats ran the Figure 3 partition")
	}
	if live.States != m.System().Slots[0].NumStates() || live.SeriesDepth != 0 || live.Slots != 1 {
		t.Fatalf("LiveStats: %d states, series %d, %d slots; want the one slot's %d states",
			live.States, live.SeriesDepth, live.Slots, m.System().Slots[0].NumStates())
	}
	st := m.Stats()
	if n := m.System().Slots[0].NumStates(); st.Slots != 1 || len(m.System().Slots) != 1 || n < 25000 {
		t.Fatalf("fitting dictionary: %d slots (%d states), want one slot of >= 25000", st.Slots, n)
	}
	if st.Engine != "kernel" || st.SeriesDepth < 2 {
		t.Fatalf("fitting dictionary: engine %q, series depth %d", st.Engine, st.SeriesDepth)
	}
	assertMatchesLike(t, "one slot", m, ref, data)

	tiled, err := compose.NewSystem(pats, compose.Config{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"over budget":   {CaseFold: true, Engine: EngineOptions{MaxTableBytes: 1 << 20}},
		"stt":           {CaseFold: true, Engine: EngineOptions{DisableKernel: true}},
		"compressed on": {CaseFold: true, Engine: EngineOptions{Compressed: CompressedOn, MaxTableBytes: 16 << 20}},
		"pinned tiles":  {CaseFold: true, MaxStatesPerTile: 1520},
	} {
		mt, err := Compile(pats, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys := mt.System()
		if !reflect.DeepEqual(sys.Slots, tiled.Slots) || !reflect.DeepEqual(sys.SlotPatterns, tiled.SlotPatterns) {
			t.Fatalf("%s: %d slots, want the %d-tile Figure 3 tiling", name, len(sys.Slots), len(tiled.Slots))
		}
		if got := mt.Stats().Slots; got != len(tiled.Slots) && mt.EngineName() != "sharded" {
			t.Fatalf("%s: Stats().Slots %d, want %d", name, got, len(tiled.Slots))
		}
		assertMatchesLike(t, name, mt, ref, data)
	}

	// A budget exactly one state short of the automaton tiles it; one
	// that holds it exactly does not.
	states := m.System().Slots[0].NumStates()
	for _, tc := range []struct {
		budget, slots int
	}{{states * 32 * 4, 1}, {(states - 1) * 32 * 4, len(tiled.Slots)}} {
		mb, err := Compile(pats, Options{CaseFold: true, Engine: EngineOptions{MaxTableBytes: tc.budget}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mb.System().Slots); got != tc.slots {
			t.Fatalf("budget %d: %d slots, want %d", tc.budget, got, tc.slots)
		}
		if tc.slots == 1 && mb.EngineName() != "kernel" {
			t.Fatalf("budget %d: one slot the kernel refused (%q)", tc.budget, mb.EngineName())
		}
	}
}

// Regex dictionaries keep their trial-compiled tiles: the host slot is
// a literal-trie construction.
func TestHostSlotRuleRegexTiles(t *testing.T) {
	// Each expression's search DFA tracks the bytes after its first
	// letter: 192 states alone, a product of the two together — more
	// than a tile holds.
	exprs := []string{"a.{6}b", "c.{6}d"}
	m, err := CompileRegexSearch(exprs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := compose.NewRegexSystem(exprs, compose.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Slots) < 2 || !reflect.DeepEqual(m.System().Slots, want.Slots) {
		t.Fatalf("regex dictionary: %d slots, want its %d trial-compiled tiles", len(m.System().Slots), len(want.Slots))
	}
	if m.Stats().Slots != len(want.Slots) {
		t.Fatalf("regex Stats().Slots %d, want %d", m.Stats().Slots, len(want.Slots))
	}
}

// TestRecompileDeltaAcrossHostCap grows a one-slot dictionary past the
// host cap and back: every step's delta recompile is byte-identical to
// a cold compile, including the append-only growth of a tiled matcher,
// which skips the one-slot attempt.
func TestRecompileDeltaAcrossHostCap(t *testing.T) {
	// A 4000-state cap at row width 32; the base dictionary (~2700
	// states) fits it, the grown ones (~5400, ~6700) do not.
	opts := Options{CaseFold: true, Engine: EngineOptions{MaxTableBytes: 4000 * 32 * 4, Filter: FilterOff}}
	base := hostDict(200, 3)
	grown := append(append([][]byte{}, base...), hostDict(200, 4)...)
	grown2 := append(append([][]byte{}, grown...), hostDict(100, 6)...)
	data := plantedTraffic(grown2)
	m, err := Compile(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.System().Slots) != 1 || m.System().Slots[0].NumStates() <= 1520 {
		t.Fatalf("base: %d slots, want one host slot over a tile", len(m.System().Slots))
	}
	steps := []struct {
		name  string
		pats  [][]byte
		slots int // 0: more than one
	}{
		{"grow past the cap", grown, 0},
		{"append while tiled", grown2, 0},
		{"shrink back under it", base, 1},
		{"append under the cap", append(append([][]byte{}, base...), hostDict(3, 9)...), 1},
	}
	for _, step := range steps {
		assertDeltaIdentical(t, step.name, m, step.pats, data)
		next, ds, err := m.RecompileDelta(step.pats)
		if err != nil {
			t.Fatal(err)
		}
		n := len(next.System().Slots)
		if (step.slots == 1) != (n == 1) {
			t.Fatalf("%s: %d slots", step.name, n)
		}
		if n == 1 && ds.Reused() {
			t.Fatalf("%s: a one-slot delta reports reuse: %+v", step.name, ds)
		}
		m = next
	}
}

// The workload dictionary the served big-dictionary benchmark uses is
// one slot under the default budget.
func TestHostSlotWorkloadDictionary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30000-state dictionary")
	}
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(pats, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Slots != 1 || st.Engine != "kernel" || st.SeriesDepth < 2 {
		t.Fatalf("30000-state dictionary: %d slots on %q (series depth %d)", st.Slots, st.Engine, st.SeriesDepth)
	}
}
