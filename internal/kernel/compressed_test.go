package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cellmatch/internal/dfa"
)

func compileBoth(t *testing.T, patterns []string, caseFold bool) (*Engine, *Compressed) {
	t.Helper()
	sys := testSystem(t, patterns, caseFold)
	eng, err := Compile(sys, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCompressed(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, comp
}

// The compressed engine must agree with the dense kernel match-for-match,
// including boundary-straddling matches.
func TestCompressedMatchesDense(t *testing.T) {
	eng, comp := compileBoth(t, []string{"virus", "rus w", "worm", "us"}, false)
	for _, n := range []int{0, 1, 3, 17, 100, 1023, 4096, 100_000} {
		data := testInput(n, int64(n))
		want := eng.FindAll(data)
		if got := comp.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d FindAll diverges", n)
		}
		if got, wantN := comp.Count(data), len(want); got != wantN {
			t.Fatalf("n=%d Count=%d want %d", n, got, wantN)
		}
	}
}

func TestCompressedCaseFold(t *testing.T) {
	eng, comp := compileBoth(t, []string{"Virus", "WORM"}, true)
	data := []byte("a vIrUs crossed a woRM and a VIRUS")
	want := eng.FindAll(data)
	if len(want) < 3 {
		t.Fatalf("probe too weak: %d matches", len(want))
	}
	if got := comp.FindAll(data); !matchesEqual(got, want) {
		t.Fatalf("casefold diverges: %v vs %v", got, want)
	}
}

// ScanChunk with a dedupe window must agree with the dense engine's.
// ScanChunk leaves the order to the caller, so both sides are sorted.
func TestCompressedScanChunk(t *testing.T) {
	eng, comp := compileBoth(t, []string{"virus", "worm", "us"}, false)
	data := testInput(4096, 7)
	for _, dedupe := range []int{0, 3, 10} {
		want := eng.ScanChunk(data, 100, dedupe)
		got := comp.ScanChunk(data, 100, dedupe)
		dfa.SortMatches(want)
		dfa.SortMatches(got)
		if !matchesEqual(got, want) {
			t.Fatalf("dedupe=%d: %d vs %d matches", dedupe, len(got), len(want))
		}
	}
}

// Streaming via ScanCarry across arbitrary piece splits must equal the
// one-shot scan, with the carry round-tripping through StartRow's
// encoding.
func TestCompressedScanCarry(t *testing.T) {
	eng, comp := compileBoth(t, []string{"virus", "worm", "us"}, false)
	data := testInput(2000, 11)
	var want []int
	for _, kt := range eng.Tables {
		cur := kt.StartRow()
		cur = kt.ScanCarry(data, cur, func(pid int32, end int) { want = append(want, int(pid), end) })
		_ = cur
	}
	for _, split := range []int{1, 7, 64, 1999} {
		var got []int
		for _, ct := range comp.Tables {
			cur := ct.StartRow()
			for off := 0; off < len(data); off += split {
				end := off + split
				if end > len(data) {
					end = len(data)
				}
				base := off
				cur = ct.ScanCarry(data[off:end], cur, func(pid int32, end int) {
					got = append(got, int(pid), base+end)
				})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("split=%d: %d match words, dense %d", split, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split=%d diverges at %d", split, i)
			}
		}
	}
}

// An impossible budget must be rejected with ErrBudget before any
// table is built, exactly like the dense compiler.
func TestCompressedBudget(t *testing.T) {
	sys := testSystem(t, []string{"virus", "worm"}, false)
	if _, err := CompileCompressed(sys, Options{MaxTableBytes: 16}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// The whole point of the rung: on an Aho-Corasick dictionary the
// compressed footprint must be well under the dense one.
func TestCompressedFootprintSmaller(t *testing.T) {
	pats := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		pats = append(pats, fmt.Sprintf("sig%04d-%08x-payload", i, i*2654435761))
	}
	sys := testSystem(t, pats, true)
	eng, err := Compile(sys, Options{Stride: 1, MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCompressed(sys, Options{MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	dense, cb := eng.TableBytes(), comp.TableBytes()
	if cb*2 > dense {
		t.Fatalf("compressed %d bytes vs dense %d: expected >= 2x compression", cb, dense)
	}
}

// Serialization round trip: the loaded engine must re-serialize
// byte-identically and scan identically.
func TestCompressedRoundTrip(t *testing.T) {
	eng, comp := compileBoth(t, []string{"virus", "worm", "us"}, true)
	img := comp.Bytes()
	loaded, err := CompressedFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Bytes(), img) {
		t.Fatal("round trip is not byte-identical")
	}
	if loaded.MaxPatternLen != comp.MaxPatternLen {
		t.Fatalf("MaxPatternLen %d vs %d", loaded.MaxPatternLen, comp.MaxPatternLen)
	}
	data := testInput(8192, 3)
	want := eng.FindAll(data)
	if got := loaded.FindAll(data); !matchesEqual(got, want) {
		t.Fatalf("loaded engine diverges: %d vs %d matches", len(got), len(want))
	}
}

func TestCompressedFromBytesRejectsCorruption(t *testing.T) {
	_, comp := compileBoth(t, []string{"virus", "worm"}, false)
	img := comp.Bytes()
	if _, err := CompressedFromBytes(img[:len(img)-3]); err == nil {
		t.Fatal("truncated container accepted")
	}
	if _, err := CompressedFromBytes([]byte("CMCPS1\x00garbage!")); err == nil {
		t.Fatal("garbage container accepted")
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xff
	if _, err := CompressedFromBytes(bad); err == nil {
		t.Fatal("corrupted tail accepted")
	}
}

// Validate must reject a default-pointer cycle: two states defaulting
// to each other would loop the scan forever.
func TestCompressedValidateCycle(t *testing.T) {
	_, comp := compileBoth(t, []string{"virus", "worm"}, false)
	ct := comp.Tables[0]
	if ct.States < 3 {
		t.Fatal("fixture too small")
	}
	saved1, saved2 := ct.Defaults[1], ct.Defaults[2]
	ct.Defaults[1], ct.Defaults[2] = 2, 1
	if err := ct.Validate(); err == nil {
		t.Fatal("default cycle accepted")
	}
	ct.Defaults[1], ct.Defaults[2] = saved1, saved2
	if err := ct.Validate(); err != nil {
		t.Fatalf("restored table invalid: %v", err)
	}
}

// Determinism: the compressed build must be byte-identical at any
// worker count (the same invariant the dense compile pipeline keeps).
func TestCompressedDeterministicAcrossWorkers(t *testing.T) {
	pats := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		pats = append(pats, fmt.Sprintf("w%03d-pattern-%d", i, i*i))
	}
	sys := testSystem(t, pats, true)
	base, err := CompileCompressed(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Bytes()
	for _, w := range []int{0, 2, 5} {
		got, err := CompileCompressed(sys, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d image differs from sequential build", w)
		}
	}
}
