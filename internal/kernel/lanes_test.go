package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
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
