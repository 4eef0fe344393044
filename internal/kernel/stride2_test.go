package kernel

import (
	"testing"

	"cellmatch/internal/dfa"
)

// stridePatterns produce matches that end on both parities, overlap,
// and nest — the cases the squashed pair flag and its epilogue must
// reconstruct exactly.
var stridePatterns = []string{"virus", "rus w", "worm", "us", "w", "abcde"}

func compileStride(t *testing.T, patterns []string, o Options) *Engine {
	t.Helper()
	sys := testSystem(t, patterns, false)
	eng, err := Compile(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// The auto policy must build pair tables for a qualifying dictionary,
// and the forced strides must land where they point.
func TestStrideSelection(t *testing.T) {
	auto := compileStride(t, stridePatterns, Options{})
	if auto.Stride() != 2 {
		t.Fatalf("auto stride = %d, want 2 (tiny dictionary passes every gate)", auto.Stride())
	}
	if auto.PairBytes() <= 0 {
		t.Fatal("stride-2 engine reports no pair bytes")
	}
	one := compileStride(t, stridePatterns, Options{Stride: 1})
	if one.Stride() != 1 || one.PairBytes() != 0 {
		t.Fatalf("stride 1 = (%d, %d pair bytes), want (1, 0)", one.Stride(), one.PairBytes())
	}
	two := compileStride(t, stridePatterns, Options{Stride: 2})
	if two.Stride() != 2 {
		t.Fatalf("forced stride 2 = %d", two.Stride())
	}
	if _, err := Compile(testSystem(t, stridePatterns, false), Options{Stride: 3}); err == nil {
		t.Fatal("stride 3 accepted")
	}
	if _, err := Compile(testSystem(t, stridePatterns, false), Options{Stride: -1}); err == nil {
		t.Fatal("stride -1 accepted")
	}
}

// A pair table that cannot fit the budget degrades to the 1-byte
// kernel — never to a lower rung, never to an error — for both the
// auto and the forced policy.
func TestStrideBudgetFallback(t *testing.T) {
	sys := testSystem(t, stridePatterns, false)
	dense, err := Compile(sys, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A budget that admits the dense table but not dense+pair.
	budget := dense.TableBytes() + dense.Tables[0].States*dense.Tables[0].Width*dense.Tables[0].Width*4/2
	for _, stride := range []int{0, 2} {
		eng, err := Compile(testSystem(t, stridePatterns, false), Options{Stride: stride, MaxTableBytes: budget})
		if err != nil {
			t.Fatalf("stride %d with tight budget: %v", stride, err)
		}
		if eng.Stride() != 1 {
			t.Fatalf("stride %d with tight budget compiled stride %d, want 1-byte fallback", stride, eng.Stride())
		}
	}
}

// Auto refuses pair tables that spill past L2Budget (they lose to the
// 1-byte kernel on the scan's serial chain), while an explicit
// Stride 2 still builds them as long as MaxTableBytes admits them.
func TestStrideAutoL2Gate(t *testing.T) {
	// ~600 distinct patterns drive the state count high enough that
	// states * width^2 * 4 clears 1 MiB.
	patterns := make([]string, 0, 600)
	for i := 0; i < 600; i++ {
		patterns = append(patterns, string([]byte{
			'a' + byte(i%26), 'a' + byte((i/26)%26), 'a' + byte((i/676)%26),
			'x', 'a' + byte(i%26), 'q', 'a' + byte((i/26)%26),
		}))
	}
	auto := compileStride(t, patterns, Options{MaxTableBytes: 64 << 20})
	forced := compileStride(t, patterns, Options{Stride: 2, MaxTableBytes: 64 << 20})
	if forced.Stride() != 2 {
		t.Fatalf("forced stride = %d, want 2", forced.Stride())
	}
	if forced.PairBytes() <= L2Budget {
		t.Fatalf("fixture pair table %d bytes fits L2Budget %d; grow the dictionary", forced.PairBytes(), L2Budget)
	}
	if auto.Stride() != 1 {
		t.Fatalf("auto built a %d-byte pair table past L2Budget", forced.PairBytes())
	}
}

// Auto also refuses alphabets wider than AutoStride2MaxClasses; an
// explicit Stride 2 does not.
func TestStrideAutoClassGate(t *testing.T) {
	// 70+ distinct bytes -> more classes than the auto gate admits.
	var wide []string
	for b := byte(' '); b < ' '+70; b++ {
		wide = append(wide, string([]byte{b, b + 1, b}))
	}
	auto := compileStride(t, wide, Options{})
	if auto.Tables[0].Classes <= AutoStride2MaxClasses {
		t.Fatalf("fixture has %d classes, need > %d", auto.Tables[0].Classes, AutoStride2MaxClasses)
	}
	if auto.Stride() != 1 {
		t.Fatalf("auto stride = %d with %d classes, want 1", auto.Stride(), auto.Tables[0].Classes)
	}
	forced := compileStride(t, wide, Options{Stride: 2, MaxTableBytes: 64 << 20})
	if forced.Stride() != 2 {
		t.Fatalf("forced stride = %d, want 2", forced.Stride())
	}
}

// The stride-2 rung must agree with the 1-byte kernel for every
// odd/even input length and lane setting: FindAll, the 1-byte view,
// Count.
func TestStride2FindAllEquivalence(t *testing.T) {
	s2 := compileStride(t, stridePatterns, Options{Stride: 2})
	s2lanes := compileStride(t, stridePatterns, Options{Stride: 2, InterleaveK: 4})
	s1 := compileStride(t, stridePatterns, Options{Stride: 1})
	if err := s2.Tables[0].Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 3, 17, 100, 101, 1023, 1024, 4097} {
		data := testInput(n, int64(n)+7)
		want := s1.FindAll(data)
		if got := s2.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d: stride-2 FindAll diverged: %d vs %d matches", n, len(got), len(want))
		}
		if got := OneByte(s2).FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d: 1-byte view of the stride-2 engine diverged", n)
		}
		if got := s2lanes.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d: stride-2 with InterleaveK 4 diverged: %d vs %d matches", n, len(got), len(want))
		}
		if got, wantN := s2.Count(data), len(want); got != wantN {
			t.Fatalf("n=%d: stride-2 Count = %d, want %d", n, got, wantN)
		}
	}
}

// ScanCarry at stride 2 must emit the same hits as the 1-byte carry
// loop for every cut position and parity, and the carried row must be
// identical (1-byte encoded) so stream state can cross strides.
func TestStride2ScanCarryCuts(t *testing.T) {
	s2 := compileStride(t, stridePatterns, Options{Stride: 2})
	s1 := compileStride(t, stridePatterns, Options{Stride: 1})
	t2, t1 := s2.Tables[0], s1.Tables[0]
	data := testInput(257, 99)
	type hit struct {
		pid int32
		end int
	}
	run := func(tab *Table, cuts []int) ([]hit, uint32) {
		var hits []hit
		row := tab.StartRow()
		prev := 0
		for _, cut := range append(cuts, len(data)) {
			base := prev
			row = tab.ScanCarry(data[prev:cut], row, func(pid int32, end int) {
				hits = append(hits, hit{pid, base + end})
			})
			prev = cut
		}
		return hits, row
	}
	wantHits, wantRow := run(t1, nil)
	for cut := 0; cut <= len(data); cut++ {
		gotHits, gotRow := run(t2, []int{cut})
		if gotRow != wantRow {
			t.Fatalf("cut=%d: carried row %#x, want %#x", cut, gotRow, wantRow)
		}
		if len(gotHits) != len(wantHits) {
			t.Fatalf("cut=%d: %d hits, want %d", cut, len(gotHits), len(wantHits))
		}
		for i := range gotHits {
			if gotHits[i] != wantHits[i] {
				t.Fatalf("cut=%d hit %d: %+v, want %+v", cut, i, gotHits[i], wantHits[i])
			}
		}
	}
	// Chunk-size sweep: every chunking of the stream yields the same.
	for size := 1; size <= 16; size++ {
		var cuts []int
		for c := size; c < len(data); c += size {
			cuts = append(cuts, c)
		}
		gotHits, gotRow := run(t2, cuts)
		if gotRow != wantRow || len(gotHits) != len(wantHits) {
			t.Fatalf("chunk=%d: %d hits row %#x, want %d hits row %#x",
				size, len(gotHits), gotRow, len(wantHits), wantRow)
		}
	}
}

// Validate must reject a corrupted pair table: flipped flag, wrong
// destination, dirtied padding.
func TestValidateCatchesPairCorruption(t *testing.T) {
	corrupt := func(mutate func(tab *Table)) error {
		eng := compileStride(t, stridePatterns, Options{Stride: 2})
		mutate(eng.Tables[0])
		return eng.Tables[0].Validate()
	}
	if err := corrupt(func(tab *Table) { tab.Pair[0] ^= FlagOut }); err == nil {
		t.Fatal("flipped pair flag passed Validate")
	}
	if err := corrupt(func(tab *Table) {
		tab.Pair[1] += 1 << tab.pairShift
	}); err == nil {
		t.Fatal("wrong pair destination passed Validate")
	}
	if err := corrupt(func(tab *Table) {
		// Last column of row 0 is padding when Classes < Width.
		if tab.Classes == tab.Width {
			t.Skip("no padding columns")
		}
		tab.Pair[uint32(tab.Width*tab.Width-1)] = 1 << tab.pairShift
	}); err == nil {
		t.Fatal("dirty pair padding passed Validate")
	}
	if err := corrupt(func(tab *Table) {
		tab.Pair = tab.Pair[:len(tab.Pair)-1]
	}); err == nil {
		t.Fatal("truncated pair table passed Validate")
	}
}

// The flagged-pair epilogue must dedupe matches inside overlap windows
// exactly like the 1-byte loop: ScanChunk with a dedupe window on both
// rungs, every window size.
func TestStride2ChunkDedupe(t *testing.T) {
	s2 := compileStride(t, stridePatterns, Options{Stride: 2})
	s1 := compileStride(t, stridePatterns, Options{Stride: 1})
	data := testInput(300, 5)
	for dedupe := 0; dedupe <= 12; dedupe++ {
		want := s1.ScanChunk(data, 1000, dedupe)
		got := s2.ScanChunk(data, 1000, dedupe)
		if !matchesEqual(got, want) {
			t.Fatalf("dedupe=%d: stride-2 chunk scan diverged: %d vs %d", dedupe, len(got), len(want))
		}
		if got := OneByte(s2).ScanUnit(0, data, 1000, dedupe); !matchesEqual(got, want) {
			t.Fatalf("dedupe=%d: 1-byte view ScanUnit diverged", dedupe)
		}
	}
	_ = dfa.Match{}
}
