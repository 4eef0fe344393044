package cellmatch_test

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/core"
	"cellmatch/internal/dfa"
	"cellmatch/internal/parallel"
)

// Fuzz targets. Under plain `go test` they run their seed corpora as
// regression tests; with `go test -fuzz=FuzzX` they explore further.

// FuzzRegexParse: the parser must never panic and must either reject
// or produce a DFA that validates and scans without fault.
func FuzzRegexParse(f *testing.F) {
	for _, seed := range []string{
		"abc", "(a|b)*abb", "a{2,4}", "[a-z]+@[a-z]+", "\\x41|\\n",
		"((((", "a**", "[z-a]", "{3}", "a|", "(?)", "[^\\x00-\\xff]",
		"\\", "a{999}", "x(y(z(w)))*",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 64 {
			return // keep subset-construction cost bounded
		}
		red, err := alphabet.FromPatterns([][]byte{[]byte("abcxyz")}, false, 16)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dfa.CompileRegex(expr, red)
		if err != nil {
			return // rejected: fine
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("compiled regex %q yields invalid DFA: %v", expr, err)
		}
		// Must scan arbitrary input without fault.
		d.Accepts(red.Reduce([]byte("abcabcxyzzz")))
	})
}

// FuzzMatcherScan: compile a two-pattern dictionary from fuzz input
// and verify the matcher's count equals a naive scan.
func FuzzMatcherScan(f *testing.F) {
	f.Add([]byte("virus"), []byte("worm"), []byte("a virus in a worm"))
	f.Add([]byte("aa"), []byte("aaa"), []byte("aaaaaaa"))
	f.Add([]byte{0xFF, 0x00}, []byte{0x01}, []byte{0xFF, 0x00, 0x01, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, p1, p2, data []byte) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 32 || len(p2) > 32 || len(data) > 4096 {
			return
		}
		m, err := core.Compile([][]byte{p1, p2}, core.Options{Groups: 2})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		got, err := m.Count(data)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveOccurrences(data, p1) + naiveOccurrences(data, p2)
		if got != want {
			t.Fatalf("count %d, naive %d (p1=%q p2=%q)", got, want, p1, p2)
		}
	})
}

// FuzzParallelEquivalence: the chunked speculative engine must agree
// byte-for-byte with the sequential scan for arbitrary dictionaries,
// worker counts, chunk sizes — including chunks smaller than the
// longest pattern — and read-split schedules, via FindAllParallel,
// ReadFindAll (chunks scanned as the body arrives) and ScanReader.
// Inputs up to 16 KiB and chunks up to 8 KiB reach the 4-lane chunk
// loop, which the 1-byte kernel runs on pieces of 1 KiB and more; the
// stride-1 opt-out takes it there on stride-2 matchers too.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add([]byte("abra"), []byte("abracadabra"), []byte("abracadabra abracadabra"), uint8(4), uint16(3), []byte{0, 2, 5})
	f.Add([]byte("aa"), []byte("aaa"), []byte("aaaaaaaaaaaaaaaa"), uint8(2), uint16(1), []byte{1})
	f.Add([]byte{0xFF, 0x00}, []byte{0x01}, bytes.Repeat([]byte{0xFF, 0x00, 0x01}, 40), uint8(7), uint16(64), []byte{63, 0, 64, 200})
	f.Add([]byte("virus"), []byte("rus"), []byte("a virus in a worm"), uint8(1), uint16(1024), []byte{})
	f.Add([]byte("virus"), []byte("us a w"), bytes.Repeat([]byte("a virus in a worm "), 600), uint8(2), uint16(5000), []byte{255, 17, 3})
	f.Fuzz(func(t *testing.T, p1, p2, data []byte, workers uint8, chunk uint16, split []byte) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 32 || len(p2) > 32 || len(data) > 16<<10 {
			return
		}
		m, err := core.Compile([][]byte{p1, p2}, core.Options{})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		want, err := m.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.ParallelOptions{
			Workers:    int(workers)%8 + 1,
			ChunkBytes: int(chunk)%(8<<10) + 1,
		}
		for _, stride1 := range []bool{false, true} {
			opts.DisableStride2 = stride1
			got, err := m.FindAllParallel(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("parallel %d matches, sequential %d (workers=%d chunk=%d stride1=%v)",
					len(got), len(want), opts.Workers, opts.ChunkBytes, stride1)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("match %d: parallel %+v, sequential %+v (workers=%d chunk=%d stride1=%v)",
						i, got[i], want[i], opts.Workers, opts.ChunkBytes, stride1)
				}
			}
		}
		opts.DisableStride2 = false
		// The body arriving in reads of the fuzzed split schedule: each
		// byte s is one read of up to 16*s+1 bytes, the schedule cycling.
		// Chunks are scanned as soon as their bytes are in.
		pool := parallel.NewPool(2)
		defer pool.Close()
		for _, po := range []core.ParallelOptions{opts, {ChunkBytes: opts.ChunkBytes, Pool: pool}} {
			read, arrived, err := m.ReadFindAll(&scheduledReader{data: data, split: split}, len(data), nil, po)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(read, data) {
				t.Fatalf("ReadFindAll read back %d bytes that differ from the body", len(read))
			}
			if len(arrived) != len(want) {
				t.Fatalf("ReadFindAll %d matches, sequential %d (chunk=%d split=%v)",
					len(arrived), len(want), po.ChunkBytes, split)
			}
			for i := range want {
				if arrived[i] != want[i] {
					t.Fatalf("ReadFindAll match %d: %+v, want %+v (chunk=%d split=%v)",
						i, arrived[i], want[i], po.ChunkBytes, split)
				}
			}
		}
		streamed, err := m.ScanReader(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(want) {
			t.Fatalf("ScanReader %d matches, sequential %d (workers=%d chunk=%d)",
				len(streamed), len(want), opts.Workers, opts.ChunkBytes)
		}
		for i := range want {
			if streamed[i] != want[i] {
				t.Fatalf("ScanReader match %d: %+v, want %+v", i, streamed[i], want[i])
			}
		}
	})
}

// scheduledReader returns data in reads sized by a cycling schedule:
// byte s of split caps one read at 16*s+1 bytes.
type scheduledReader struct {
	data  []byte
	split []byte
	next  int
}

func (r *scheduledReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(r.split) > 0 {
		s := int(r.split[r.next%len(r.split)])
		r.next++
		p = p[:min(len(p), 16*s+1)]
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// FuzzKernelEquivalence: the dense compiled kernel must agree with the
// stt/dfa fallback path AND with a naive baseline matcher for random
// dictionaries, case folding on and off, and every interleave lane
// count 1..8 plus the automatic lane rule (k=0) — across FindAll,
// FindAllParallel, and ScanReader. Inputs up to 16 KiB give the
// automatic rule pieces past its 2 KiB cut, in FindAll and in the
// len/3+1-byte pool chunks.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("virus"), []byte("rus w"), []byte("a virus in a worm"), false, uint8(3))
	f.Add([]byte("AbRa"), []byte("cadabra"), []byte("abracadabra ABRACADABRA"), true, uint8(7))
	f.Add([]byte("aa"), []byte("aaa"), []byte("aaaaaaaaaaaaaaaa"), false, uint8(0))
	f.Add([]byte{0xFF, 0x00}, []byte{0x01}, bytes.Repeat([]byte{0xFF, 0x00, 0x01}, 40), false, uint8(5))
	f.Add([]byte("Virus"), []byte("us a W"), bytes.Repeat([]byte("a virus in a worm "), 600), true, uint8(9))
	f.Fuzz(func(t *testing.T, p1, p2, data []byte, fold bool, rawK uint8) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 32 || len(p2) > 32 || len(data) > 16<<10 {
			return
		}
		k := int(rawK) % 9
		dict := [][]byte{p1, p2}
		kernelM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{InterleaveK: k, Stride: 1},
		})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		if kernelM.Stats().Engine != "kernel" {
			t.Fatalf("kernel engine not selected for a 2-pattern dictionary")
		}
		sttM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{DisableKernel: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sttM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kernelM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel %d matches, stt %d (fold=%v k=%d)", len(got), len(want), fold, k)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("match %d: kernel %+v, stt %+v (fold=%v k=%d)", i, got[i], want[i], fold, k)
			}
		}
		// Baseline cross-check: total count equals the naive scan.
		// Patterns sharing a reduced image (e.g. "a" and "A" under
		// folding) would double-count naive hits, so require the two
		// patterns to stay distinct under the fold.
		if !bytes.Equal(foldBytes(p1, fold), foldBytes(p2, fold)) {
			naive := naiveFoldOccurrences(data, p1, fold) + naiveFoldOccurrences(data, p2, fold)
			if len(got) != naive {
				t.Fatalf("kernel %d matches, naive baseline %d (fold=%v)", len(got), naive, fold)
			}
		}
		// Parallel + streaming over the kernel engine.
		popts := core.ParallelOptions{Workers: k, ChunkBytes: len(data)/3 + 1}
		par, err := kernelM.FindAllParallel(data, popts)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := kernelM.ScanReader(bytes.NewReader(data), popts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if par[i] != want[i] {
				t.Fatalf("parallel match %d: %+v, want %+v", i, par[i], want[i])
			}
			if streamed[i] != want[i] {
				t.Fatalf("reader match %d: %+v, want %+v", i, streamed[i], want[i])
			}
		}
		if len(par) != len(want) || len(streamed) != len(want) {
			t.Fatalf("parallel %d / reader %d matches, want %d", len(par), len(streamed), len(want))
		}
	})
}

// FuzzStride2Equivalence: the 2-byte-stride pair-table rung must agree
// byte-for-byte with the 1-byte kernel AND the stt fallback for
// arbitrary dictionaries, case folding on and off, K ∈ {1,4} lanes and
// workers, across sequential FindAll, the per-request stride-1 opt-out,
// the shared pool, ScanReader, and the incremental Stream — the
// epilogue/odd-tail correctness net for matches ending on odd offsets
// and straddling every cut.
func FuzzStride2Equivalence(f *testing.F) {
	f.Add([]byte("virus"), []byte("rus w"), []byte("a virus in a worm"), false, uint8(3), uint16(7))
	f.Add([]byte("AbRa"), []byte("cadabra"), []byte("abracadabra ABRACADABRA"), true, uint8(0), uint16(3))
	f.Add([]byte("aa"), []byte("aaa"), []byte("aaaaaaaaaaaaaaaaa"), false, uint8(200), uint16(1))
	f.Add([]byte{0xFF, 0x00}, []byte{0x01}, bytes.Repeat([]byte{0xFF, 0x00, 0x01}, 41), false, uint8(129), uint16(64))
	f.Fuzz(func(t *testing.T, p1, p2, data []byte, fold bool, sel uint8, chunk uint16) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 32 || len(p2) > 32 || len(data) > 4096 {
			return
		}
		k := 1
		if sel >= 128 {
			k = 4
		}
		dict := [][]byte{p1, p2}
		stride2M, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{InterleaveK: k, Stride: 2},
		})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		if got := stride2M.Stats().Engine; got != "stride2" {
			// Forced stride 2 only yields when the pair tables blow the
			// budget, impossible for a 2-pattern dictionary.
			t.Fatalf("stride-2 engine not selected: %q", got)
		}
		kernelM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{InterleaveK: k, Stride: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sttM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{DisableKernel: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sttM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := kernelM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "kernel-vs-stt", ref, want)
		got, err := stride2M.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "FindAll", got, want)
		if n, err := stride2M.Count(data); err != nil || n != len(want) {
			t.Fatalf("Count = %d (%v), want %d", n, err, len(want))
		}
		// The per-request stride-1 opt-out scans the same matcher on its
		// 1-byte loops.
		opt, err := stride2M.FindAllWith(data, core.ScanOptions{DisableStride2: true})
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "DisableStride2", opt, want)
		pool := parallel.NewPool(2)
		defer pool.Close()
		cs := int(chunk)%2048 + 1
		for _, opts := range []core.ParallelOptions{
			{Workers: k, ChunkBytes: cs},
			{ChunkBytes: cs, Pool: pool},
			{Workers: k, ChunkBytes: cs, ScanOptions: core.ScanOptions{DisableStride2: true}},
		} {
			par, err := stride2M.FindAllParallel(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "FindAllParallel", par, want)
			rd, err := stride2M.ScanReader(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "ScanReader", rd, want)
		}
		// Incremental stream: cuts land on odd and even parities.
		s := stride2M.NewStream()
		for off := 0; off < len(data); off += cs {
			end := off + cs
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[off:end])
		}
		assertEqualMatches(t, "Stream", sortedMatches(s.Matches()), sortedMatches(want))
	})
}

// FuzzCompressedEquivalence: the compressed-row rung (bitmap-indexed
// rows + default-pointer chains) must agree byte-for-byte with the
// dense kernel AND the stt fallback for arbitrary dictionaries, case
// folding on and off, K ∈ {1,4} lanes and workers, across sequential
// FindAll, Count, the shared pool, ScanReader, and the incremental
// Stream — the net over the chain-walk resolution logic and the
// carry-encoding seams the other rungs never execute.
func FuzzCompressedEquivalence(f *testing.F) {
	f.Add([]byte("virus"), []byte("rus w"), []byte("a virus in a worm"), false, uint8(3), uint16(7))
	f.Add([]byte("AbRa"), []byte("cadabra"), []byte("abracadabra ABRACADABRA"), true, uint8(0), uint16(3))
	f.Add([]byte("aa"), []byte("aaa"), []byte("aaaaaaaaaaaaaaaaa"), false, uint8(200), uint16(1))
	f.Add([]byte{0xFF, 0x00}, []byte{0x01}, bytes.Repeat([]byte{0xFF, 0x00, 0x01}, 41), false, uint8(129), uint16(64))
	f.Fuzz(func(t *testing.T, p1, p2, data []byte, fold bool, sel uint8, chunk uint16) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > 32 || len(p2) > 32 || len(data) > 4096 {
			return
		}
		k := 1
		if sel >= 128 {
			k = 4
		}
		dict := [][]byte{p1, p2}
		compM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{InterleaveK: k, Compressed: core.CompressedOn},
		})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		if got := compM.Stats().Engine; got != "compressed" {
			// Forced compressed only yields when the rows blow the budget,
			// impossible for a 2-pattern dictionary.
			t.Fatalf("compressed engine not selected: %q", got)
		}
		kernelM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{InterleaveK: k, Stride: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sttM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{DisableKernel: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sttM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := kernelM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "kernel-vs-stt", ref, want)
		got, err := compM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "FindAll", got, want)
		if n, err := compM.Count(data); err != nil || n != len(want) {
			t.Fatalf("Count = %d (%v), want %d", n, err, len(want))
		}
		pool := parallel.NewPool(2)
		defer pool.Close()
		cs := int(chunk)%2048 + 1
		for _, opts := range []core.ParallelOptions{
			{Workers: k, ChunkBytes: cs},
			{ChunkBytes: cs, Pool: pool},
		} {
			par, err := compM.FindAllParallel(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "FindAllParallel", par, want)
			rd, err := compM.ScanReader(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "ScanReader", rd, want)
		}
		// Incremental stream: carry crosses every cut parity.
		s := compM.NewStream()
		for off := 0; off < len(data); off += cs {
			end := off + cs
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[off:end])
		}
		assertEqualMatches(t, "Stream", sortedMatches(s.Matches()), sortedMatches(want))
	})
}

// FuzzShardEquivalence: the sharded multi-kernel engine must agree
// byte-for-byte with the stt path for arbitrary dictionaries, case
// folding on and off, shard caps 1..4, and both the sequential
// chunk-interleaved scan and the pool-fanned parallel scan. The
// per-shard budget is derived from the dictionary's real dense
// footprint (3/4 of it), so the dense kernel can never win the ladder
// and most inputs land on the sharded tier; inputs that cannot shard
// (a dominant single pattern) exercise the stt fallback instead, which
// must be equivalent too.
func FuzzShardEquivalence(f *testing.F) {
	f.Add([]byte("aaaaaaaa"), []byte("bbbbbbbb"), []byte("cccccccc"),
		[]byte("xxaaaaaaaabbbbbbbbxxccccccccxx"), false, uint8(1))
	f.Add([]byte("abracadab"), []byte("cadabraca"), []byte("abra"),
		[]byte("abracadabra abracadabra cadabraca"), false, uint8(3))
	f.Add([]byte("VirusSig"), []byte("WormSign"), []byte("Trojans!"),
		[]byte("a virussig, a WORMSIGN, trojans! everywhere"), true, uint8(2))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00}, []byte{0x01, 0x02, 0x03}, []byte{0xFF, 0x01},
		bytes.Repeat([]byte{0xFF, 0x00, 0x01, 0x02, 0x03}, 30), false, uint8(0))
	f.Fuzz(func(t *testing.T, p1, p2, p3, data []byte, fold bool, rawShards uint8) {
		if len(p1) == 0 || len(p2) == 0 || len(p3) == 0 ||
			len(p1) > 32 || len(p2) > 32 || len(p3) > 32 || len(data) > 4096 {
			return
		}
		shards := int(rawShards)%4 + 1
		dict := [][]byte{p1, p2, p3}
		ref, err := core.Compile(dict, core.Options{CaseFold: fold})
		if err != nil {
			return // e.g. too many distinct symbols
		}
		budget := ref.Stats().KernelTableBytes * 3 / 4
		shardedM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{MaxTableBytes: budget, MaxShards: shards},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := shardedM.Stats().Engine; got == "kernel" {
			t.Fatalf("budget %d under the dense footprint still selected the kernel", budget)
		}
		sttM, err := core.Compile(dict, core.Options{
			CaseFold: fold,
			Engine:   core.EngineOptions{DisableKernel: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sttM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardedM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("sharded %d matches, stt %d (fold=%v shards=%d engine=%s)",
				len(got), len(want), fold, shards, shardedM.Stats().Engine)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("match %d: sharded %+v, stt %+v (fold=%v shards=%d)",
					i, got[i], want[i], fold, shards)
			}
		}
		// Pool-fanned (shard x chunk work items) and ad-hoc parallel.
		pool := parallel.NewPool(2)
		defer pool.Close()
		for _, opts := range []core.ParallelOptions{
			{Workers: shards + 1, ChunkBytes: len(data)/3 + 1},
			{ChunkBytes: 64, Pool: pool},
		} {
			par, err := shardedM.FindAllParallel(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(want) {
				t.Fatalf("parallel %d matches, want %d (pool=%v)", len(par), len(want), opts.Pool != nil)
			}
			for i := range want {
				if par[i] != want[i] {
					t.Fatalf("parallel match %d: %+v, want %+v (pool=%v)", i, par[i], want[i], opts.Pool != nil)
				}
			}
		}
	})
}

// FuzzFilterEquivalence: the skip-scan front-end must be invisible in
// the output — filter-on vs filter-off byte-identical — for arbitrary
// dictionaries (including single-byte minimums, where the filter must
// auto-bypass), case folding on and off, every verifier tier (dense
// kernel, sharded, stt), K ∈ {1,4} workers, sequential FindAll, the
// shared pool, ScanReader, and the incremental Stream.
func FuzzFilterEquivalence(f *testing.F) {
	f.Add([]byte("abracadab"), []byte("cadabraca"), []byte("dabra"),
		[]byte("abracadabra abracadabra cadabraca"), false, uint8(0), uint16(7))
	f.Add([]byte("VirusSig"), []byte("WormSign"), []byte("Trojans!"),
		[]byte("a virussig, a WORMSIGN, trojans! everywhere"), true, uint8(1), uint16(64))
	f.Add([]byte("aaaa"), []byte("aaaaaaa"), []byte("aa"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaa"), false, uint8(2), uint16(3))
	f.Add([]byte{0xFF, 0x00, 0x01, 0x02}, []byte{0x01, 0x02, 0x03, 0x04}, []byte{0xFF},
		bytes.Repeat([]byte{0xFF, 0x00, 0x01, 0x02, 0x03, 0x04}, 30), false, uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, p1, p2, p3, data []byte, fold bool, sel uint8, chunk uint16) {
		if len(p1) == 0 || len(p2) == 0 || len(p3) == 0 ||
			len(p1) > 32 || len(p2) > 32 || len(p3) > 32 || len(data) > 4096 {
			return
		}
		dict := [][]byte{p1, p2, p3}
		verifier := int(sel) % 3 // 0 = kernel, 1 = sharded, 2 = stt
		workers := 1
		if sel >= 128 {
			workers = 4
		}
		engine := core.EngineOptions{}
		switch verifier {
		case 1:
			ref, err := core.Compile(dict, core.Options{CaseFold: fold})
			if err != nil {
				return // e.g. too many distinct symbols
			}
			engine.MaxTableBytes = ref.Stats().KernelTableBytes * 3 / 4
			engine.MaxShards = 4
		case 2:
			engine.DisableKernel = true
		}
		compileWith := func(mode core.FilterMode) (*core.Matcher, error) {
			e := engine
			e.Filter = mode
			return core.Compile(dict, core.Options{CaseFold: fold, Engine: e})
		}
		offM, err := compileWith(core.FilterOff)
		if err != nil {
			return // e.g. too many distinct symbols
		}
		onM, err := compileWith(core.FilterOn)
		if err != nil {
			t.Fatal(err)
		}
		want, err := offM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := onM.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "FindAll", got, want)
		if n, err := onM.Count(data); err != nil || n != len(want) {
			t.Fatalf("Count = %d (%v), want %d", n, err, len(want))
		}
		pool := parallel.NewPool(2)
		defer pool.Close()
		cs := int(chunk)%2048 + 1
		for _, opts := range []core.ParallelOptions{
			{Workers: workers, ChunkBytes: cs},
			{ChunkBytes: cs, Pool: pool},
		} {
			par, err := onM.FindAllParallel(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "FindAllParallel", par, want)
			rd, err := onM.ScanReader(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualMatches(t, "ScanReader", rd, want)
		}
		s := onM.NewStream()
		for off := 0; off < len(data); off += cs {
			end := off + cs
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[off:end])
		}
		// Stream reports per-slot feed order when the filter bypasses
		// (e.g. single-byte patterns); canonicalize both sides.
		assertEqualMatches(t, "Stream", sortedMatches(s.Matches()), sortedMatches(want))
	})
}

// sortedMatches canonicalizes match order by (End, Pattern).
func sortedMatches(ms []core.Match) []core.Match {
	out := append([]core.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// assertEqualMatches fails the fuzz case when two match slices differ.
func assertEqualMatches(t *testing.T, ctx string, got, want []core.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d is %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// foldBytes uppercases ASCII letters when fold is set — the same
// canonicalization alphabet.FromPatterns applies.
func foldBytes(b []byte, fold bool) []byte {
	if !fold {
		return b
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// naiveFoldOccurrences counts occurrences under optional ASCII case
// folding, the oracle for the matcher's reduced-alphabet semantics.
func naiveFoldOccurrences(text, pat []byte, fold bool) int {
	t, p := foldBytes(text, fold), foldBytes(pat, fold)
	return naiveOccurrences(t, p)
}

func naiveOccurrences(text, pat []byte) int {
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			n++
		}
	}
	return n
}

// FuzzArtifactLoad: arbitrary bytes must never panic the loader, and
// a valid artifact must round-trip.
func FuzzArtifactLoad(f *testing.F) {
	m, err := core.CompileStrings([]string{"seed", "corpus"}, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("CMSAV1\x00garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		back, err := core.Load(bytes.NewReader(blob))
		if err != nil {
			return
		}
		// Whatever loaded must be usable without fault.
		if _, err := back.Count([]byte("seed corpus probe")); err != nil {
			t.Fatalf("loaded matcher cannot scan: %v", err)
		}
	})
}

// FuzzStreamChunking: any chunking of any input yields the same
// matches as a single-shot scan.
func FuzzStreamChunking(f *testing.F) {
	f.Add([]byte("abracadabra abra"), uint8(3))
	f.Add([]byte(strings.Repeat("ab", 50)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 4096 {
			return
		}
		m, err := core.CompileStrings([]string{"abra", "ab"}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := m.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		cs := int(chunk)%16 + 1
		s := m.NewStream()
		for i := 0; i < len(data); i += cs {
			end := i + cs
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[i:end])
		}
		if len(s.Matches()) != len(batch) {
			t.Fatalf("chunk %d: stream %d vs batch %d matches",
				cs, len(s.Matches()), len(batch))
		}
	})
}

// FuzzIncrementalCompile: a delta-recompiled matcher must be
// byte-identical to a cold compile of the same dictionary — same Save
// image and same match stream — for arbitrary base dictionaries,
// arbitrary edits (append, remove, replace), case folding on and off,
// and tile-size splits that force multi-slot systems. This is the
// differential net for the incremental compilation path: any reuse
// decision that is not provably content-safe shows up as an image
// mismatch here.
func FuzzIncrementalCompile(f *testing.F) {
	f.Add([]byte("virus"), []byte("worm"), []byte("trojan"), []byte("a virus in a worm"), uint8(0), uint8(0))
	f.Add([]byte("abra"), []byte("cadabra"), []byte("abracadabra"), []byte("abracadabra abracadabra"), uint8(1), uint8(40))
	f.Add([]byte("AbRa"), []byte("CAD"), []byte("ra c"), []byte("abracadabra ABRACADABRA"), uint8(130), uint8(3))
	f.Add([]byte{0xFF, 0x00}, []byte{0x01, 0x02}, []byte{0x00, 0x01}, bytes.Repeat([]byte{0xFF, 0x00, 0x01, 0x02}, 30), uint8(66), uint8(0))
	f.Fuzz(func(t *testing.T, p1, p2, p3, data []byte, sel, tile uint8) {
		for _, p := range [][]byte{p1, p2, p3} {
			if len(p) == 0 || len(p) > 32 {
				return
			}
		}
		if len(data) > 4096 {
			return
		}
		opts := core.Options{CaseFold: sel >= 128}
		if tile > 0 {
			// Small tiles force multi-slot systems, the regime where
			// per-slot reuse decisions actually differ.
			opts.MaxStatesPerTile = int(tile)%120 + 8
		}
		base, err := core.Compile([][]byte{p1, p2}, opts)
		if err != nil {
			return // e.g. too many distinct symbols
		}
		// Edit: append p3, remove an entry, or replace one with p3.
		var next [][]byte
		switch sel % 3 {
		case 0:
			next = [][]byte{p1, p2, p3}
		case 1:
			next = [][]byte{p2}
		case 2:
			next = [][]byte{p1, p3}
		}
		// The delta path must agree with the cold path even on failure:
		// an edit that the cold compiler rejects (e.g. a pattern over
		// the tile state budget) must be rejected by the patch too, and
		// vice versa.
		patched, _, deltaErr := base.RecompileDelta(next)
		cold, coldErr := core.Compile(next, opts)
		if (deltaErr == nil) != (coldErr == nil) {
			t.Fatalf("delta/cold disagree on compilability: delta=%v cold=%v", deltaErr, coldErr)
		}
		if coldErr != nil {
			return
		}
		var imgPatched, imgCold bytes.Buffer
		if err := patched.Save(&imgPatched); err != nil {
			t.Fatal(err)
		}
		if err := cold.Save(&imgCold); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imgPatched.Bytes(), imgCold.Bytes()) {
			t.Fatalf("delta image differs from cold image (sel=%d tile=%d)", sel, tile)
		}
		want, err := cold.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := patched.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatches(t, "delta-vs-cold", got, want)
	})
}
