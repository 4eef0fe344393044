package kernel

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cellmatch/internal/dfa"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenTable compiles the fixed fixture dictionary. Everything in the
// pipeline (alphabet assignment, Aho-Corasick construction, entry
// encoding) is deterministic, so the serialized image is reproducible
// bit-for-bit; any encoding drift fails this test.
func goldenTable(t *testing.T) *Table {
	t.Helper()
	sys := testSystem(t, []string{"VIRUS", "WORM", "RUSV"}, true)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Tables) != 1 {
		t.Fatalf("fixture dictionary split into %d slots", len(eng.Tables))
	}
	return eng.Tables[0]
}

func TestGoldenKernelImage(t *testing.T) {
	path := filepath.Join("testdata", "kernel_v1.golden")
	img := goldenTable(t).Bytes()
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
		t.Fatalf("kernel image drifted from golden fixture: %d bytes vs %d", len(img), len(want))
	}
}

// goldenSharded compiles the fixed sharded fixture: the same
// deterministic pipeline as goldenTable, but forced through the shard
// planner by a budget that fits roughly one pattern per shard.
func goldenSharded(t *testing.T) *Sharded {
	t.Helper()
	pats := [][]byte{[]byte("VIRUS"), []byte("WORMHOLE"), []byte("RUSTED")}
	red := reductionFor(t, pats, true)
	sh, err := CompileSharded(pats, ShardConfig{
		CaseFold:      true,
		MaxTableBytes: 10 * red.KernelRowBytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() < 2 {
		t.Fatalf("golden fixture did not shard: %d shards", sh.Shards())
	}
	return sh
}

func TestGoldenShardedImage(t *testing.T) {
	path := filepath.Join("testdata", "sharded_v1.golden")
	img := goldenSharded(t).Bytes()
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
		t.Fatalf("sharded image drifted from golden fixture: %d bytes vs %d", len(img), len(want))
	}
}

func TestGoldenShardedReload(t *testing.T) {
	path := filepath.Join("testdata", "sharded_v1.golden")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	loaded, err := ShardedFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenSharded(t)
	probe := []byte("a virus fell down a wormhole and rusted: virusrusted")
	want := fresh.FindAll(probe)
	if len(want) == 0 {
		t.Fatal("probe found no matches; fixture too weak")
	}
	got := loaded.FindAll(probe)
	if len(got) != len(want) {
		t.Fatalf("loaded sharded engine: %d matches, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// goldenCompressed compiles the fixed compressed-container fixture:
// same deterministic pipeline (BFS default recovery, class-order
// explicit packing), so the container image is reproducible
// bit-for-bit.
func goldenCompressed(t *testing.T) *Compressed {
	t.Helper()
	sys := testSystem(t, []string{"VIRUS", "WORM", "RUSV"}, true)
	comp, err := CompileCompressed(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestGoldenCompressedImage(t *testing.T) {
	path := filepath.Join("testdata", "compressed_v1.golden")
	img := goldenCompressed(t).Bytes()
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
		t.Fatalf("compressed image drifted from golden fixture: %d bytes vs %d", len(img), len(want))
	}
}

func TestGoldenCompressedReload(t *testing.T) {
	path := filepath.Join("testdata", "compressed_v1.golden")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	loaded, err := CompressedFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenCompressed(t)
	probe := []byte("a virus, a WORM, and virusvirus rusv")
	want := fresh.FindAll(probe)
	if len(want) == 0 {
		t.Fatal("probe found no matches; fixture too weak")
	}
	got := loaded.FindAll(probe)
	if len(got) != len(want) {
		t.Fatalf("loaded compressed engine: %d matches, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// The checked-in image must load and produce the exact matches the
// freshly compiled table does.
func TestGoldenKernelReload(t *testing.T) {
	path := filepath.Join("testdata", "kernel_v1.golden")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	loaded, err := FromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenTable(t)
	probe := []byte("a virus, a WORM, and virusvirus rusv")
	var a, b []int
	fresh.ScanCarry(probe, fresh.StartRow(), func(pid int32, end int) { a = append(a, int(pid), end) })
	loaded.ScanCarry(probe, loaded.StartRow(), func(pid int32, end int) { b = append(b, int(pid), end) })
	if len(a) == 0 {
		t.Fatal("probe found no matches; fixture too weak")
	}
	if len(a) != len(b) {
		t.Fatalf("loaded table: %d match words, fresh %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match stream diverges at %d: %d vs %d", i, b[i], a[i])
		}
	}
}

// TestGoldenEarlierNumberings loads images compiled before states were
// numbered breadth-first: dense rows in trie-insertion order, and
// compressed rows renumbered by stationary mass. They are load-only
// fixtures that -update never rewrites. An artifact saved by such a
// build must still load, validate, and report the same (End, Pattern)
// list as a fresh compile, though its bytes differ from one.
func TestGoldenEarlierNumberings(t *testing.T) {
	probe := []byte("a virus, a WORM, and virusvirus rusv; WORMVIRUSV")
	read := func(t *testing.T, name string) []byte {
		t.Helper()
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	same := func(t *testing.T, got, want []dfa.Match) {
		t.Helper()
		if len(want) == 0 {
			t.Fatal("probe found no matches; fixture too weak")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded image reports %v, fresh compile %v", got, want)
		}
	}
	t.Run("kernel_insertion", func(t *testing.T) {
		img := read(t, "kernel_insertion.golden")
		loaded, err := FromBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Validate(); err != nil {
			t.Fatal(err)
		}
		fresh := goldenTable(t)
		if bytes.Equal(img, fresh.Bytes()) {
			t.Fatal("fixture matches a fresh image; it no longer pins an earlier numbering")
		}
		scan := func(tab *Table) []dfa.Match {
			var out []dfa.Match
			tab.ScanCarry(probe, tab.StartRow(), func(pid int32, end int) {
				out = append(out, dfa.Match{Pattern: pid, End: end})
			})
			return out
		}
		same(t, scan(loaded), scan(fresh))
	})
	t.Run("compressed_hotfirst", func(t *testing.T) {
		img := read(t, "compressed_hotfirst.golden")
		loaded, err := CompressedFromBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		for i, ct := range loaded.Tables {
			if err := ct.Validate(); err != nil {
				t.Fatalf("table %d: %v", i, err)
			}
		}
		fresh := goldenCompressed(t)
		if bytes.Equal(img, fresh.Bytes()) {
			t.Fatal("fixture matches a fresh image; it no longer pins an earlier numbering")
		}
		same(t, loaded.FindAll(probe), fresh.FindAll(probe))
	})
}
