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

// checkLanes compares the lane forms of ScanChunk, the counting loop,
// FindAll and Count on one piece against serialRef, for every engine
// and every dedupe in [0, len(piece)].
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
				t.Fatalf("k=%d n=%d dedupe=%d: lane count %d, serial %d", k, n, dedupe, c, len(want))
			}
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

// The lane loops (the unrolled 4-lane scan4 and the generic scanK)
// must equal the serial loop at every piece length from 0 to
// 4*overlap+8 and around the selection cut, for every dedupe window.
func TestLaneEquivalence(t *testing.T) {
	sys, data := laneFixture(t)
	var engines []*Engine
	for _, k := range []int{0, 1, 2, 3, 4, 8} {
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
	for n := 0; n <= 4*ov+8; n++ {
		off := n * 7 % 97
		checkLanes(t, engines, data[off:off+n])
	}
	auto, four := engines[0], engines[4]
	for n := laneMinBytes - 1; n <= laneMinBytes+1; n++ {
		want := 1
		if n >= laneMinBytes {
			want = laneK
		}
		if got := auto.InterleaveFor(n); got != want {
			t.Fatalf("n=%d: auto picked k=%d, want %d", n, got, want)
		}
		checkLanes(t, []*Engine{auto, four}, data[3:3+n])
	}
}

// chooseK: a pinned lane count wins at any length; the auto rule needs
// both laneMinBytes and laneK*laneK overlaps of piece.
func TestChooseK(t *testing.T) {
	for _, c := range []struct{ pinned, n, overlap, want int }{
		{1, 1 << 20, 0, 1},
		{2, 10, 0, 2},
		{MaxInterleave + 3, 10, 0, MaxInterleave},
		{0, laneMinBytes - 1, 0, 1},
		{0, laneMinBytes, 0, laneK},
		{0, laneMinBytes, laneMinBytes / (laneK * laneK), laneK},
		{0, laneMinBytes, laneMinBytes/(laneK*laneK) + 1, 1},
	} {
		if got := chooseK(c.pinned, c.n, c.overlap); got != c.want {
			t.Errorf("chooseK(%d, %d, %d) = %d, want %d", c.pinned, c.n, c.overlap, got, c.want)
		}
	}
}

// InterleaveK 1 pins the serial loop on ScanChunk too: the piece is
// never split into lanes, whatever its length.
func TestInterleaveOnePinsScanChunk(t *testing.T) {
	sys, data := laneFixture(t)
	e, err := Compile(sys, Options{Stride: 1, InterleaveK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k := e.InterleaveFor(len(data)); k != 1 {
		t.Fatalf("InterleaveK 1 picked k=%d on %d bytes", k, len(data))
	}
	if c := e.laneChunks(data, e.InterleaveFor(len(data))); c != nil {
		t.Fatalf("InterleaveK 1 split %d bytes into %d lanes", len(data), len(c))
	}
}

// laneExits runs scan4's exit/resume loop over piece and records each
// offset at which step4 stopped, as a bit mask of the flagged lanes.
func laneExits(tb *Table, piece []byte, chunks []interleave.Chunk, lock int) map[int]int {
	var l lanes4
	for i, c := range chunks {
		l.x[i] = piece[c.Start : c.Start+lock]
		l.s[i] = tb.start
	}
	exits := map[int]int{}
	for p := step4(tb.Entries, &tb.ByteClass, &l, 0); p < lock; p = step4(tb.Entries, &tb.ByteClass, &l, p+1) {
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

// The exit/resume path of the 4-lane loop: step4 stops at every byte
// where some lane's entry is flagged, scan4 emits those lanes' matches
// and resumes. Each case plants matches where that path has an edge:
// flags on all lanes at once or on one, at the first and last lockstep
// byte, in the serial tail drain, on a lane's dedupe cut, and on every
// byte. step4 must stop exactly at the flagged bytes (the case's own
// must-exits included), and the lanes must equal the serial loop for
// every (base, dedupe) pair, with Count and FindAll agreeing.
func TestLaneExitResume(t *testing.T) {
	const n = 4099 // lanes of unequal length, so lanes 1-3 have tails
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
	chunks := e.laneChunks(make([]byte, n), laneK)
	lock := n
	for _, c := range chunks {
		lock = min(lock, c.Len())
	}
	if e.InterleaveFor(n) != laneK || len(chunks) != laneK || chunks[3].Len() == lock || chunks[1].Overlap != 3 {
		t.Fatalf("fixture: k=%d chunks=%+v, want 4 lanes of unequal length with overlap 3", e.InterleaveFor(n), chunks)
	}
	cut := chunks[2].Start + 50 // a dedupe value inside lane 2

	cases := []struct {
		name  string
		eng   *Engine
		plant func(piece []byte)
		must  map[int]int // step4 exits the case exists for
	}{
		{"all four lanes at one offset", e, func(p []byte) {
			for _, c := range chunks {
				put(p, c.Start+101, "q")
			}
		}, map[int]int{100: 0b1111}},
		{"one lane only", e, func(p []byte) {
			for i, c := range chunks {
				put(p, c.Start+201+10*i, "zq")
			}
		}, map[int]int{200: 0b0001, 210: 0b0010, 220: 0b0100, 230: 0b1000}},
		{"lockstep offsets 0 and n-1", e, func(p []byte) {
			for _, c := range chunks {
				put(p, c.Start+1, "q")
				put(p, c.Start+lock, "q")
			}
		}, map[int]int{0: 0b1111, lock - 1: 0b1111}},
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
			chunks[1].Overlap - 1: 0b1110, chunks[1].Overlap: 0b1110,
			cut - chunks[2].Start - 1: 0b0100, cut - chunks[2].Start: 0b0100,
		}},
		{"every byte matches", every, func([]byte) {}, map[int]int{0: 0b1111, lock - 1: 0b1111}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			piece := filler()
			tc.plant(piece)
			tb := tc.eng.Tables[0]
			exits, want := laneExits(tb, piece, chunks, lock), flaggedBytes(tb, piece, chunks, lock)
			if len(exits) != len(want) {
				t.Fatalf("step4 stopped at %d bytes, %d are flagged", len(exits), len(want))
			}
			for p, mask := range want {
				if exits[p] != mask {
					t.Fatalf("step4 at %d: lanes %04b, flagged %04b", p, exits[p], mask)
				}
			}
			for p, mask := range tc.must {
				if want[p] != mask {
					t.Fatalf("fixture: byte %d flags lanes %04b, want %04b", p, want[p], mask)
				}
			}
			for _, cfg := range []struct{ base, dedupe int }{
				{0, 0}, {1000, 0}, {0, chunks[1].Start + 2}, {7, cut - 1}, {7, cut}, {0, chunks[3].Start + lock}, {3, n},
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
