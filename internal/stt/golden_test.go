package stt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenSTT encodes the fixed fixture dictionary at the paper's width
// 32. Construction is deterministic end to end, so the big-endian
// local-store image must be reproducible bit-for-bit; any drift in the
// encoding (entry layout, flag packing, padding columns) fails here.
func goldenSTT(t *testing.T) *Table {
	t.Helper()
	red := alphabet.CaseFold32()
	d, err := dfa.FromPatterns([][]byte{
		[]byte("VIRUS"), []byte("WORM"), []byte("RUSV"),
	}, red)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Encode(d, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGoldenSTTImage(t *testing.T) {
	path := filepath.Join("testdata", "stt_v1.golden")
	img := goldenSTT(t).Bytes()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("stt image drifted from golden fixture: %d bytes vs %d", len(img), len(want))
	}
}

// The checked-in image must round-trip through FromBytes and count the
// same final entries as the freshly encoded table.
func TestGoldenSTTReload(t *testing.T) {
	path := filepath.Join("testdata", "stt_v1.golden")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	fresh := goldenSTT(t)
	loaded, err := FromBytes(img, fresh.Syms, fresh.Width, fresh.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Data) != len(fresh.Data) {
		t.Fatalf("loaded %d entries, fresh %d", len(loaded.Data), len(fresh.Data))
	}
	for i := range fresh.Data {
		if loaded.Data[i] != fresh.Data[i] {
			t.Fatalf("entry %d: loaded %#x, fresh %#x", i, loaded.Data[i], fresh.Data[i])
		}
	}
	probe := alphabet.CaseFold32().Reduce([]byte("a virus, a WORM, and virusvirus rusv"))
	if got, want := loaded.CountFinalEntries(probe), fresh.CountFinalEntries(probe); got != want || want == 0 {
		t.Fatalf("loaded table counts %d, fresh %d", got, want)
	}
}

// TestGoldenInsertionOrderImage loads the image encoded before
// dfa.FromPatterns numbered states breadth-first, when rows followed
// trie-insertion order. It is a load-only fixture that -update never
// rewrites: the image must still load, validate, and enter final
// states at the same input positions as a fresh encoding, though its
// bytes differ from one.
func TestGoldenInsertionOrderImage(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "stt_insertion.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenSTT(t)
	if bytes.Equal(img, fresh.Bytes()) {
		t.Fatal("fixture matches a fresh image; it no longer pins the insertion order")
	}
	loaded, err := FromBytes(img, fresh.Syms, fresh.Width, fresh.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	probe := alphabet.CaseFold32().Reduce([]byte("a virus, a WORM, and virusvirus rusv; WORMVIRUSV"))
	finalEnds := func(tab *Table) []int {
		var ends []int
		cur := tab.StartPtr() & PtrMask
		for i, c := range probe {
			e := tab.Lookup(cur, c)
			if IsFinal(e) {
				ends = append(ends, i+1)
			}
			cur = e & PtrMask
		}
		return ends
	}
	got, want := finalEnds(loaded), finalEnds(fresh)
	if len(want) == 0 {
		t.Fatal("probe found no matches; fixture too weak")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("loaded image ends %v, fresh encoding %v", got, want)
	}
}
