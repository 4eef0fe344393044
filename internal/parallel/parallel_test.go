package parallel

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/kernel"
)

func mustSystem(t *testing.T, patterns []string) *compose.System {
	t.Helper()
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	sys, err := compose.NewSystem(bs, compose.Config{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func sequential(t *testing.T, sys *compose.System, data []byte) []dfa.Match {
	t.Helper()
	want, err := sys.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertSameMatches(t *testing.T, want, got []dfa.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("match count: sequential %d, parallel %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("match %d: sequential %+v, parallel %+v", i, want[i], got[i])
		}
	}
}

// repeatedText builds input with matches planted at known strides so
// chunk boundaries of every size cut through some of them.
func repeatedText(n int) []byte {
	const motif = "xx abra cadabra ABRACADABRA junk bytes in between ra "
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(motif)
	}
	return b.Bytes()[:n]
}

var testDict = []string{"abra", "cadabra", "abracadabra", "ra", "junk"}

// TestScanKernelEngine drives the worker pool over the dense kernel:
// chunks are scanned in place (raw bytes, no reduction scratch), and
// results must stay byte-identical to the sequential scan for chunk
// sizes that cut through planted matches. Runs clean under -race.
func TestScanKernelEngine(t *testing.T) {
	sys := mustSystem(t, testDict)
	eng, err := kernel.Compile(sys, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := repeatedText(10000)
	want := sequential(t, sys, data)
	for _, chunk := range []int{1, 2, 3, 7, 64, 1000, 20000} {
		opts := Options{Workers: 4, ChunkBytes: chunk, Verifier: eng}
		got, err := Scan(sys, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, want, got)
		streamed, err := ScanReader(sys, bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, want, streamed)
	}
}

func TestScanMatchesSequential(t *testing.T) {
	sys := mustSystem(t, testDict)
	data := repeatedText(10000)
	want := sequential(t, sys, data)
	if len(want) == 0 {
		t.Fatal("test input has no matches")
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		for _, chunk := range []int{0, 1, 2, 5, 64, 1000, 4096, 1 << 20} {
			got, err := Scan(sys, data, Options{Workers: workers, ChunkBytes: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d chunk=%d: got %d matches, want %d",
					workers, chunk, len(got), len(want))
			}
			assertSameMatches(t, want, got)
		}
	}
}

func TestScanChunkSmallerThanPattern(t *testing.T) {
	// "abracadabra" is 11 bytes; 4-byte chunks force every match to
	// straddle boundaries and exercise overlap clamping at chunk 0.
	sys := mustSystem(t, testDict)
	data := []byte("abracadabra abracadabra")
	want := sequential(t, sys, data)
	got, err := Scan(sys, data, Options{Workers: 4, ChunkBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, want, got)
}

func TestScanEmptyAndTiny(t *testing.T) {
	sys := mustSystem(t, testDict)
	for _, data := range [][]byte{nil, {}, []byte("a"), []byte("abra")} {
		want := sequential(t, sys, data)
		got, err := Scan(sys, data, Options{Workers: 8, ChunkBytes: 3})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, want, got)
	}
}

func TestScanMultiSlotDictionary(t *testing.T) {
	// A dictionary large enough to partition into several series
	// slots: per-slot pattern id remapping must survive the merge.
	var pats []string
	for i := 0; i < 26; i++ {
		for j := 0; j < 26; j++ {
			pats = append(pats, string([]byte{
				byte('a' + i), byte('a' + j), byte('a' + (i+j)%26),
				byte('a' + i), byte('a' + j), byte('a' + (i+j)%26),
				byte('a' + i), byte('a' + j),
			}))
		}
	}
	bs := make([][]byte, len(pats))
	for i, p := range pats {
		bs[i] = []byte(p)
	}
	sys, err := compose.NewSystem(bs, compose.Config{MaxStatesPerTile: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Slots) < 2 {
		t.Fatalf("want a multi-slot system, got %d slots", len(sys.Slots))
	}
	data := bytes.Repeat([]byte("aabaabaab zzyzzyzzy mnymnymny "), 300)
	want := sequential(t, sys, data)
	if len(want) == 0 {
		t.Fatal("no matches planted")
	}
	got, err := Scan(sys, data, Options{Workers: 5, ChunkBytes: 97})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, want, got)
}

func TestScanReaderMatchesScan(t *testing.T) {
	sys := mustSystem(t, testDict)
	data := repeatedText(50000)
	want := sequential(t, sys, data)
	for _, opts := range []Options{
		{},
		{Workers: 1, ChunkBytes: 100},
		{Workers: 4, ChunkBytes: 7},
		{Workers: 3, ChunkBytes: 4096},
	} {
		got, err := ScanReader(sys, bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, want, got)
	}
}

func TestScanReaderDribbledInput(t *testing.T) {
	// One-byte reads force many partial batches; OneByteReader also
	// exercises the io.ErrUnexpectedEOF path of io.ReadFull.
	sys := mustSystem(t, testDict)
	data := repeatedText(3000)
	want := sequential(t, sys, data)
	got, err := ScanReader(sys, iotest.OneByteReader(bytes.NewReader(data)), Options{
		Workers: 2, ChunkBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, want, got)
}

func TestScanReaderEmpty(t *testing.T) {
	sys := mustSystem(t, testDict)
	got, err := ScanReader(sys, bytes.NewReader(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty reader produced %d matches", len(got))
	}
}

func TestScanReaderPropagatesError(t *testing.T) {
	sys := mustSystem(t, testDict)
	boom := iotest.ErrReader(io.ErrClosedPipe)
	if _, err := ScanReader(sys, boom, Options{}); err == nil {
		t.Fatal("reader error swallowed")
	}
	// An error after some data must also surface.
	r := io.MultiReader(bytes.NewReader(repeatedText(1000)), boom)
	if _, err := ScanReader(sys, r, Options{Workers: 2, ChunkBytes: 64}); err == nil {
		t.Fatal("mid-stream reader error swallowed")
	}
}

// TestScanConcurrentUse runs many Scans over one shared system at
// once: the engine must be race-clean under `go test -race` with
// read-only shared state.
func TestScanConcurrentUse(t *testing.T) {
	sys := mustSystem(t, testDict)
	data := repeatedText(20000)
	want := sequential(t, sys, data)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			got, err := Scan(sys, data, Options{Workers: 3, ChunkBytes: 512 + g})
			if err == nil && len(got) != len(want) {
				err = io.ErrShortBuffer
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	sys := mustSystem(t, testDict)
	o := Options{}.withDefaults(sys)
	if o.Verifier == nil || o.Verifier.Name() != "stt" {
		t.Fatalf("default verifier %v, want the stt path", o.Verifier)
	}
	if o.Workers < 1 {
		t.Fatalf("default workers %d", o.Workers)
	}
	if o.ChunkBytes != DefaultChunkBytes {
		t.Fatalf("default chunk %d", o.ChunkBytes)
	}
	o = Options{Workers: -3, ChunkBytes: -1}.withDefaults(sys)
	if o.Workers < 1 || o.ChunkBytes != DefaultChunkBytes {
		t.Fatalf("negative options not normalized: %+v", o)
	}
}
