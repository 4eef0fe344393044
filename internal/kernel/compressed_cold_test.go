package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// stripHot removes the derived hot-row accelerator so the bitmap/chain
// fallback loops run. Hotness affects only speed, never output, so
// every scan surface must produce identical matches without it.
func stripHot(c *Compressed) {
	for _, t := range c.Tables {
		t.hot = nil
		t.hotLimit = 0
	}
}

// Every scan surface must agree with its hot-rows result after the
// accelerator is stripped: the chain-walk loops are the correctness
// reference the hot path merely shortcuts.
func TestCompressedColdPathEquivalence(t *testing.T) {
	eng, comp := compileBoth(t, []string{"virus", "rus w", "worm", "us"}, false)
	cold, err := CompileCompressed(testSystem(t, []string{"virus", "rus w", "worm", "us"}, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stripHot(cold)
	for _, ct := range cold.Tables {
		if ct.hot != nil || ct.hotLimit != 0 {
			t.Fatal("stripHot left hot rows behind")
		}
	}
	for _, n := range []int{0, 1, 3, 17, 100, 1023, 4096, 60_000} {
		data := testInput(n, int64(n)+7)
		want := eng.FindAll(data)
		if got := cold.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d: cold path %d matches, dense %d", n, len(got), len(want))
		}
		if got, wantN := cold.Count(data), len(want); got != wantN {
			t.Fatalf("n=%d cold Count=%d want %d", n, got, wantN)
		}
		if got := cold.ScanChunk(data, 0, 0); len(got) != len(want) {
			t.Fatalf("n=%d cold ScanChunk %d matches, want %d", n, len(got), len(want))
		}
	}
	// Streaming continuation through the cold ScanCarry loop.
	data := testInput(3000, 13)
	var want, got []int
	for _, kt := range eng.Tables {
		kt.ScanCarry(data, kt.StartRow(), func(pid int32, end int) { want = append(want, int(pid), end) })
	}
	for _, split := range []int{1, 9, 257} {
		got = got[:0]
		for _, ct := range cold.Tables {
			cur := ct.StartRow()
			for off := 0; off < len(data); off += split {
				end := min(off+split, len(data))
				base := off
				cur = ct.ScanCarry(data[off:end], cur, func(pid int32, end int) {
					got = append(got, int(pid), base+end)
				})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("split=%d: cold carry %d match words, dense %d", split, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split=%d cold carry diverges at word %d", split, i)
			}
		}
	}
	_ = comp
}

// wideSystemPatterns spans well over 64 distinct bytes so the
// class-bitmap rows need more than one uint64 word: wpc > 1, the
// nextWide rank path, and no hot rows (the accelerator is gated to
// <= 32 classes).
func wideSystemPatterns() []string {
	pats := []string{"virus", "worm!", "Zx9?~", "{edge}", "[#&*]"}
	// Printable ASCII 0x21..0x7e in 5-byte runs: ~94 distinct symbols.
	for b := 0x21; b+5 <= 0x7f; b += 5 {
		pats = append(pats, fmt.Sprintf("%c%c%c%c%c", b, b+1, b+2, b+3, b+4))
	}
	return pats
}

func wideTestInput(n int, seed int64, pats []string) []byte {
	rng := rand.New(rand.NewSource(seed))
	filler := []byte("abcZx9?~{}[#&*]@!0123ABCDEF <>=+-_;:,.|/^%$")
	out := make([]byte, 0, n)
	for len(out) < n {
		if rng.Intn(12) == 0 {
			out = append(out, pats[rng.Intn(len(pats))]...)
		} else {
			out = append(out, filler[rng.Intn(len(filler))])
		}
	}
	return out[:n]
}

// The >64-class form (nextWide, multi-word bitmap rank) must agree with
// the dense kernel on every scan surface.
func TestCompressedWideClasses(t *testing.T) {
	pats := wideSystemPatterns()
	sys := testSystem(t, pats, false)
	eng, err := Compile(sys, Options{Stride: 1, MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCompressed(sys, Options{MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	sawWide := false
	for _, ct := range comp.Tables {
		if ct.wpc > 1 {
			sawWide = true
		}
		if ct.hot != nil {
			t.Fatalf("hot rows built for %d classes (gate is 32)", ct.Classes)
		}
	}
	if !sawWide {
		t.Fatalf("probe too weak: no table has wpc > 1")
	}
	for _, n := range []int{0, 1, 37, 1024, 20_000} {
		data := wideTestInput(n, int64(n)+3, pats)
		want := eng.FindAll(data)
		if n >= 1024 && len(want) == 0 {
			t.Fatalf("n=%d probe too weak: no matches", n)
		}
		if got := comp.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d: wide compressed %d matches, dense %d", n, len(got), len(want))
		}
		if got, wantN := comp.Count(data), len(want); got != wantN {
			t.Fatalf("n=%d wide Count=%d want %d", n, got, wantN)
		}
	}
	// Streaming continuation through the wide ScanCarry loop.
	data := wideTestInput(2500, 41, pats)
	var want, got []int
	for _, kt := range eng.Tables {
		kt.ScanCarry(data, kt.StartRow(), func(pid int32, end int) { want = append(want, int(pid), end) })
	}
	for _, ct := range comp.Tables {
		cur := ct.StartRow()
		for off := 0; off < len(data); off += 113 {
			end := min(off+113, len(data))
			base := off
			cur = ct.ScanCarry(data[off:end], cur, func(pid int32, end int) {
				got = append(got, int(pid), base+end)
			})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("wide carry %d match words, dense %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wide carry diverges at word %d", i)
		}
	}
}

// A dictionary with more states than hotRowCap exercises the hot/cold
// boundary inside the accelerated loops: filler bytes stay in hot
// root-adjacent states while embedded full patterns walk deep cold
// states (low stationary mass), so cold5 and the hot loops' fallback
// arms both run and must agree with the dense kernel.
func TestCompressedHotColdBoundary(t *testing.T) {
	pats := make([]string, 0, 60)
	for i := 0; i < 60; i++ {
		pats = append(pats, fmt.Sprintf("deepsig%02d-%08x-tail", i, i*2654435761))
	}
	sys := testSystem(t, pats, false)
	eng, err := Compile(sys, Options{Stride: 1, MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCompressed(sys, Options{MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	sawBoundary := false
	for _, ct := range comp.Tables {
		if ct.hot == nil {
			t.Fatalf("hot rows missing on a %d-class table", ct.Classes)
		}
		if ct.States > hotRowCap {
			sawBoundary = true
		}
	}
	if !sawBoundary {
		t.Fatalf("probe too weak: every table fits inside %d hot rows", hotRowCap)
	}
	rng := rand.New(rand.NewSource(97))
	filler := []byte("deepsig0123456789abcdef-til ")
	data := make([]byte, 0, 120_000)
	for len(data) < 120_000 {
		if rng.Intn(20) == 0 {
			data = append(data, pats[rng.Intn(len(pats))]...)
		} else {
			data = append(data, filler[rng.Intn(len(filler))])
		}
	}
	want := eng.FindAll(data)
	if len(want) == 0 {
		t.Fatal("probe too weak: no matches")
	}
	if got := comp.FindAll(data); !matchesEqual(got, want) {
		t.Fatalf("hot/cold scan %d matches, dense %d", len(got), len(want))
	}
	if got, wantN := comp.Count(data), len(want); got != wantN {
		t.Fatalf("hot/cold Count=%d want %d", got, wantN)
	}
	var wantC, gotC []int
	for _, kt := range eng.Tables {
		kt.ScanCarry(data, kt.StartRow(), func(pid int32, end int) { wantC = append(wantC, int(pid), end) })
	}
	for _, ct := range comp.Tables {
		cur := ct.StartRow()
		for off := 0; off < len(data); off += 1021 {
			end := min(off+1021, len(data))
			base := off
			cur = ct.ScanCarry(data[off:end], cur, func(pid int32, end int) {
				gotC = append(gotC, int(pid), base+end)
			})
		}
	}
	if len(gotC) != len(wantC) {
		t.Fatalf("hot/cold carry %d match words, dense %d", len(gotC), len(wantC))
	}
	for i := range wantC {
		if gotC[i] != wantC[i] {
			t.Fatalf("hot/cold carry diverges at word %d", i)
		}
	}
}

// The compressed rung scans serially under every InterleaveK: a lane
// setting, including one an older artifact stored, changes neither
// FindAll nor Count.
func TestCompressedIgnoresInterleaveK(t *testing.T) {
	sys := testSystem(t, []string{"virus", "rus w", "worm", "us"}, false)
	eng, err := Compile(sys, Options{Stride: 1, InterleaveK: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 0, 1, 2, 4, 9} {
		comp, err := CompileCompressed(sys, Options{InterleaveK: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, laneMinBytes - 1, laneMinBytes, 64 << 10} {
			data := testInput(n, int64(n)+11)
			want := eng.FindAll(data)
			if got := comp.FindAll(data); !matchesEqual(got, want) {
				t.Fatalf("InterleaveK %d, n=%d: compressed %d matches, dense %d", k, n, len(got), len(want))
			}
			if got := comp.Count(data); got != len(want) {
				t.Fatalf("InterleaveK %d, n=%d: Count %d, want %d", k, n, got, len(want))
			}
		}
	}
}
