package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/interleave"
)

// laneFixture is a stride-1 dictionary whose longest pattern (40
// bytes) is close to the lane length of the short pieces below, so a
// dedupe window or an overlap prefix reaches into lane 1 and beyond,
// and an input that plants that pattern every 40 to 80 bytes between
// random filler the short patterns hit now and then.
func laneFixture(t *testing.T) (*compose.System, []byte) {
	t.Helper()
	long := strings.Repeat("abc", 13) + "a"
	sys := testSystem(t, []string{"xyx", "ccb", "ya", "bca", long}, false)
	rng := rand.New(rand.NewSource(5))
	var data []byte
	for len(data) < 8<<10 {
		for i := rng.Intn(40); i > 0; i-- {
			data = append(data, "abcxy"[rng.Intn(5)])
		}
		data = append(data, long...)
	}
	return sys, data
}

// serialRef is the single-stream reference for a piece: every table's
// scanSerial, sorted.
func serialRef(e *Engine, piece []byte, base, dedupe int) []dfa.Match {
	var out []dfa.Match
	for _, t := range e.Tables {
		t.scanSerial(piece, base, dedupe, &out)
	}
	dfa.SortMatches(out)
	return out
}

// checkLanes compares ScanChunk, the counting loop, FindAll and Count
// on one piece against serialRef, for every engine and every dedupe in
// [0, len(piece)], and the lane loop forced at the piece's length
// whatever the rule picks.
func checkLanes(t *testing.T, engines []*Engine, piece []byte) {
	t.Helper()
	const base = 1000
	n := len(piece)
	ref := engines[0]
	for dedupe := 0; dedupe <= n; dedupe++ {
		want := serialRef(ref, piece, base, dedupe)
		for _, e := range engines {
			k := e.InterleaveFor(n)
			got := e.ScanChunk(piece, base, dedupe)
			dfa.SortMatches(got)
			if !matchesEqual(got, want) {
				t.Fatalf("k=%d n=%d dedupe=%d: ScanChunk %d matches, serial %d", k, n, dedupe, len(got), len(want))
			}
			if c := e.scan1(piece, base, dedupe, k, nil); c != len(want) {
				t.Fatalf("k=%d n=%d dedupe=%d: count %d, serial %d", k, n, dedupe, c, len(want))
			}
		}
		var got []dfa.Match
		kept := ref.scan1(piece, base, dedupe, laneK, &got)
		dfa.SortMatches(got)
		if !matchesEqual(got, want) || kept != len(want) {
			t.Fatalf("n=%d dedupe=%d: forced lanes kept %d (%d matches), serial %d", n, dedupe, kept, len(got), len(want))
		}
		if c := ref.scan1(piece, base, dedupe, laneK, nil); c != len(want) {
			t.Fatalf("n=%d dedupe=%d: forced lane count %d, serial %d", n, dedupe, c, len(want))
		}
	}
	want := serialRef(ref, piece, 0, 0)
	for _, e := range engines {
		k := e.InterleaveFor(n)
		if got := e.FindAll(piece); !matchesEqual(got, want) {
			t.Fatalf("k=%d n=%d: FindAll %d matches, serial %d", k, n, len(got), len(want))
		}
		if c := e.Count(piece); c != len(want) {
			t.Fatalf("k=%d n=%d: Count %d, serial %d", k, n, c, len(want))
		}
	}
}

// The lane loop must equal the serial loop at every piece length from
// 0 to laneK*overlap+8 and around the selection cut, for every dedupe
// window, on the rule's choice and forced.
func TestLaneEquivalence(t *testing.T) {
	sys, data := laneFixture(t)
	var engines []*Engine
	for _, k := range []int{0, 1} {
		e, err := Compile(sys, Options{Stride: 1, InterleaveK: k})
		if err != nil {
			t.Fatal(err)
		}
		if e.Stride() != 1 {
			t.Fatalf("stride %d, want the 1-byte loops", e.Stride())
		}
		engines = append(engines, e)
	}
	ov := engines[0].overlap()
	if ov != 39 {
		t.Fatalf("overlap %d, want 39", ov)
	}
	for n := 0; n <= laneK*ov+8; n++ {
		off := n * 7 % 97
		checkLanes(t, engines, data[off:off+n])
	}
	auto, serial := engines[0], engines[1]
	for n := laneMinBytes - 1; n <= laneMinBytes+1; n++ {
		want := 1
		if n >= laneMinBytes {
			want = laneK
		}
		if got := auto.InterleaveFor(n); got != want {
			t.Fatalf("n=%d: auto picked k=%d, want %d", n, got, want)
		}
		checkLanes(t, []*Engine{auto, serial}, data[3:3+n])
	}
}

// chooseK: InterleaveK 1 pins the serial loop at any length; every
// other value applies the rule, which needs both laneMinBytes and
// laneK*laneK overlaps of piece.
func TestChooseK(t *testing.T) {
	for _, c := range []struct{ interleaveK, n, overlap, want int }{
		{1, 1 << 20, 0, 1},
		{0, laneMinBytes - 1, 0, 1},
		{0, laneMinBytes, 0, laneK},
		{0, laneMinBytes, laneMinBytes / (laneK * laneK), laneK},
		{0, laneMinBytes, laneMinBytes/(laneK*laneK) + 1, 1},
		{0, laneK * laneK * 100, 100, laneK},
		{0, laneK*laneK*100 - 1, 100, 1},
		{2, 10, 0, 1},
		{2, laneMinBytes, 0, laneK},
		{8, laneMinBytes - 1, 0, 1},
		{8, 1 << 20, 0, laneK},
		{-1, laneMinBytes, 0, laneK},
	} {
		if got := chooseK(c.interleaveK, c.n, c.overlap); got != c.want {
			t.Errorf("chooseK(%d, %d, %d) = %d, want %d", c.interleaveK, c.n, c.overlap, got, c.want)
		}
	}
}

// InterleaveK 1 pins the serial loop on ScanChunk too: the piece is
// never split into lanes, whatever its length, where the rule would
// split the same piece.
func TestInterleaveOnePinsScanChunk(t *testing.T) {
	sys, data := laneFixture(t)
	e, err := Compile(sys, Options{Stride: 1, InterleaveK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k := e.InterleaveFor(len(data)); k != 1 {
		t.Fatalf("InterleaveK 1 picked k=%d on %d bytes", k, len(data))
	}
	auto, err := Compile(sys, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k := auto.InterleaveFor(len(data)); k != laneK {
		t.Fatalf("fixture: the rule picked k=%d on %d bytes, want %d", k, len(data), laneK)
	}
	got, want := e.ScanChunk(data, 0, 0), serialRef(e, data, 0, 0)
	dfa.SortMatches(got)
	if !matchesEqual(got, want) {
		t.Fatalf("ScanChunk %d matches, serial %d", len(got), len(want))
	}
}

// laneExits runs scanLanes' exit/resume loop over piece and records
// each offset at which stepLanes stopped, as a bit mask of the flagged
// lanes.
func laneExits(tb *Table, piece []byte, chunks []interleave.Chunk, lock int) map[int]int {
	var l lanes
	for i, c := range chunks {
		l.x[i] = piece[c.Start : c.Start+lock]
		l.s[i] = tb.start
	}
	exits := map[int]int{}
	for p := stepLanes(tb.Entries, &tb.ByteClass, &l, 0); p < lock; p = stepLanes(tb.Entries, &tb.ByteClass, &l, p+1) {
		for i, e := range l.s {
			if e&FlagOut != 0 {
				exits[p] |= 1 << i
			}
		}
	}
	return exits
}

// flaggedBytes is laneExits' reference: each lane walked on its own
// over its first lock bytes, one table load per byte.
func flaggedBytes(tb *Table, piece []byte, chunks []interleave.Chunk, lock int) map[int]int {
	flagged := map[int]int{}
	for i, c := range chunks {
		cur := tb.start
		for p, b := range piece[c.Start : c.Start+lock] {
			e := tb.Entries[cur+uint32(tb.ByteClass[b])]
			if e&FlagOut != 0 {
				flagged[p] |= 1 << i
			}
			cur = e & rowMask
		}
	}
	return flagged
}

// The exit/resume path of the lane loop: stepLanes stops at every byte
// where some lane's entry is flagged, scanLanes emits those lanes'
// matches and resumes. Each case plants matches where that path has an
// edge: flags on all lanes at once or on one, at the first and last
// lockstep byte, in the serial tail drain, on a lane's dedupe cut, and
// on every byte. stepLanes must stop exactly at the flagged bytes (the
// case's own must-exits included), and the lanes must equal the serial
// loop for every (base, dedupe) pair, with Count and FindAll agreeing.
// Fixtures and lane masks follow laneK.
func TestLaneExitResume(t *testing.T) {
	// Lane 0 is 1000 bytes and the lanes after it a few bytes longer,
	// so lanes 1..laneK-1 have tails.
	const n = 1000*laneK - 1
	const all = 1<<laneK - 1 // the mask of every lane
	filler := func() []byte {
		rng := rand.New(rand.NewSource(9))
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdefgh"[rng.Intn(8)]
		}
		return b
	}
	// put writes pat into piece so that it ends at the 1-based end.
	put := func(piece []byte, end int, pat string) { copy(piece[end-len(pat):], pat) }

	sys := testSystem(t, []string{"q", "wxyz", "zq"}, false)
	e, err := Compile(sys, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	letters := make([]string, 26)
	for i := range letters {
		letters[i] = string(rune('a' + i))
	}
	every, err := Compile(testSystem(t, letters, false), Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := interleave.SplitWithOverlap(n, laneK, e.overlap())
	if err != nil {
		t.Fatal(err)
	}
	lock := n
	for _, c := range chunks {
		lock = min(lock, c.Len())
	}
	last := chunks[laneK-1]
	if e.InterleaveFor(n) != laneK || len(chunks) != laneK || last.Len() == lock || chunks[1].Overlap != 3 {
		t.Fatalf("fixture: k=%d chunks=%+v, want %d lanes of unequal length with overlap 3", e.InterleaveFor(n), chunks, laneK)
	}
	cut := chunks[2].Start + 50 // a dedupe value inside lane 2

	oneLane := map[int]int{}
	for i := range laneK {
		oneLane[200+10*i] = 1 << i
	}
	cases := []struct {
		name  string
		eng   *Engine
		plant func(piece []byte)
		must  map[int]int // stepLanes exits the case exists for
	}{
		{"all lanes at one offset", e, func(p []byte) {
			for _, c := range chunks {
				put(p, c.Start+101, "q")
			}
		}, map[int]int{100: all}},
		{"one lane only", e, func(p []byte) {
			for i, c := range chunks {
				put(p, c.Start+201+10*i, "zq")
			}
		}, oneLane},
		{"lockstep offsets 0 and n-1", e, func(p []byte) {
			for _, c := range chunks {
				put(p, c.Start+1, "q")
				put(p, c.Start+lock, "q")
			}
		}, map[int]int{0: all, lock - 1: all}},
		{"tail drain", e, func(p []byte) {
			for _, c := range chunks[1:] {
				put(p, c.Start+lock+1, "q")
				put(p, c.End, "wxyz")
			}
		}, nil},
		{"match on a dedupe cut", e, func(p []byte) {
			for _, c := range chunks[1:] {
				put(p, c.Start+c.Overlap, "zq")
				put(p, c.Start+c.Overlap+1, "q")
			}
			put(p, cut, "wxyz")
			put(p, cut+1, "q")
		}, map[int]int{
			chunks[1].Overlap - 1: all &^ 1, chunks[1].Overlap: all &^ 1,
			cut - chunks[2].Start - 1: 1 << 2, cut - chunks[2].Start: 1 << 2,
		}},
		{"every byte matches", every, func([]byte) {}, map[int]int{0: all, lock - 1: all}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			piece := filler()
			tc.plant(piece)
			tb := tc.eng.Tables[0]
			exits, want := laneExits(tb, piece, chunks, lock), flaggedBytes(tb, piece, chunks, lock)
			if len(exits) != len(want) {
				t.Fatalf("stepLanes stopped at %d bytes, %d are flagged", len(exits), len(want))
			}
			for p, mask := range want {
				if exits[p] != mask {
					t.Fatalf("stepLanes at %d: lanes %0*b, flagged %0*b", p, laneK, exits[p], laneK, mask)
				}
			}
			for p, mask := range tc.must {
				if want[p] != mask {
					t.Fatalf("fixture: byte %d flags lanes %0*b, want %0*b", p, laneK, want[p], laneK, mask)
				}
			}
			for _, cfg := range []struct{ base, dedupe int }{
				{0, 0}, {1000, 0}, {0, chunks[1].Start + 2}, {7, cut - 1}, {7, cut}, {0, last.Start + lock}, {3, n},
			} {
				want := serialRef(tc.eng, piece, cfg.base, cfg.dedupe)
				var got []dfa.Match
				kept := tc.eng.scan1(piece, cfg.base, cfg.dedupe, laneK, &got)
				dfa.SortMatches(got)
				if !matchesEqual(got, want) || kept != len(want) {
					t.Fatalf("base=%d dedupe=%d: lanes kept %d (%d matches), serial %d", cfg.base, cfg.dedupe, kept, len(got), len(want))
				}
				if c := tc.eng.scan1(piece, cfg.base, cfg.dedupe, laneK, nil); c != len(want) {
					t.Fatalf("base=%d dedupe=%d: lane count %d, serial %d", cfg.base, cfg.dedupe, c, len(want))
				}
			}
			want0 := serialRef(tc.eng, piece, 0, 0)
			if len(want0) == 0 || tc.name == "tail drain" && want0[len(want0)-1].End != n {
				t.Fatalf("fixture: %d matches, none in the last lane's tail", len(want0))
			}
			if got := tc.eng.FindAll(piece); !matchesEqual(got, want0) {
				t.Fatalf("FindAll %d matches, serial %d", len(got), len(want0))
			}
			if c := tc.eng.Count(piece); c != len(want0) {
				t.Fatalf("Count %d, serial %d", c, len(want0))
			}
		})
	}
}

// FuzzLanes drives the lane loop at any piece length, below the lane
// rule's cut included, where lane edges, overlap prefixes and the
// dedupe cut crowd together, with any base and dedupe: its matches and
// its count must equal the serial loop's. The two patterns are cut to
// 24 bytes, so a lane of a short piece can be shorter than the
// overlap.
//
//	go test ./internal/kernel -run '^$' -fuzz FuzzLanes
func FuzzLanes(f *testing.F) {
	f.Add([]byte("abca"), []byte("ca"), []byte("abcabcacabca"), uint16(0), uint16(0))
	f.Add([]byte("xyx"), []byte("yxy"), []byte("xyxyxyxyxyxyxyxyxyxyxyx"), uint16(7), uint16(9))
	f.Add([]byte("q"), []byte("zq"), []byte("zqzqqzq"), uint16(1000), uint16(3))
	f.Add([]byte(strings.Repeat("ab", 12)), []byte("b"), []byte(strings.Repeat("ab", 300)), uint16(5), uint16(401))
	// At the rule's cut: a laneMinBytes piece deduped at lane 1's
	// start, and a piece of exactly laneK*laneK overlaps.
	f.Add([]byte("wxyz"), []byte("zq"), []byte(strings.Repeat("wxyzq", laneMinBytes/5+1)[:laneMinBytes]), uint16(0), uint16(laneMinBytes/laneK))
	f.Add([]byte(strings.Repeat("abc", 8)), []byte("ca"), []byte(strings.Repeat("abc", 8*laneK*laneK)[:23*laneK*laneK]), uint16(9), uint16(23))
	f.Fuzz(func(t *testing.T, p1, p2, piece []byte, base, dedupe uint16) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 24 || len(p2) > 24 || len(piece) > 8<<10 {
			return
		}
		sys, err := compose.NewSystem([][]byte{p1, p2}, compose.Config{})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		e, err := Compile(sys, Options{Stride: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, d := int(base), int(dedupe)%(len(piece)+2)
		want := serialRef(e, piece, b, d)
		var got []dfa.Match
		kept := e.scan1(piece, b, d, laneK, &got)
		dfa.SortMatches(got)
		if !matchesEqual(got, want) || kept != len(want) {
			t.Fatalf("n=%d base=%d dedupe=%d: lanes kept %d (%d matches), serial %d", len(piece), b, d, kept, len(got), len(want))
		}
		if c := e.scan1(piece, b, d, laneK, nil); c != len(want) {
			t.Fatalf("n=%d base=%d dedupe=%d: lane count %d, serial %d", len(piece), b, d, c, len(want))
		}
	})
}
