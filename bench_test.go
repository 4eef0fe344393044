// Benchmarks regenerating the paper's evaluation. Each table/figure
// has a bench that reports the paper's metric via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness
// (cmd/paperbench prints the same data as formatted tables).
//
// Naming map:
//
//	BenchmarkTable1V*          -> Table 1 (per-version kernel metrics)
//	BenchmarkFigure2_*         -> Figure 2 (DMA bandwidth sweep)
//	BenchmarkFigure5_*         -> Figure 5 (double buffering)
//	BenchmarkFigure8/9_*       -> Figures 8-9 (dynamic STT replacement)
//	BenchmarkFigure6/7_*       -> Section 5 composition (native scan scaling)
//	BenchmarkAblation*         -> DESIGN.md design-choice ablations
//	BenchmarkBaseline*         -> comparator algorithms
package cellmatch_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/baseline"
	"cellmatch/internal/compose"
	"cellmatch/internal/core"
	"cellmatch/internal/dfa"
	"cellmatch/internal/eib"
	"cellmatch/internal/pipeline"
	"cellmatch/internal/sim"
	"cellmatch/internal/stt"
	"cellmatch/internal/tile"
	"cellmatch/internal/workload"
)

// paperSetup builds the shared ~1520-state dictionary and its encoded
// table once.
var paperSetup = sync.OnceValues(func() (*dfa.DFA, *stt.Table) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: 1})
	if err != nil {
		panic(err)
	}
	d, err := dfa.FromPatterns(pats, alphabet.CaseFold32())
	if err != nil {
		panic(err)
	}
	tab, err := stt.Encode(d, 32, 0)
	if err != nil {
		panic(err)
	}
	return d, tab
})

func paperInput(n int, seed int64) []byte {
	d, _ := paperSetup()
	out := make([]byte, n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		out[i] = byte((s >> 33) % uint64(d.Syms))
	}
	return out
}

// --- Table 1 -----------------------------------------------------------

func benchTable1(b *testing.B, version int) {
	d, _ := paperSetup()
	tl, err := tile.New(d, tile.Config{Version: version})
	if err != nil {
		b.Fatal(err)
	}
	g := tl.BlockGranularity()
	n := 16384 / g * g
	block := paperInput(n, int64(version))
	var row tile.Table1Row
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, prof, err := tl.MatchBlockSim(block)
		if err != nil {
			b.Fatal(err)
		}
		_ = counts
		cpt := prof.CyclesPer(int64(n))
		row = tile.Table1Row{
			CyclesPerTransition: cpt,
			CPI:                 prof.CPI(),
			DualIssuePct:        prof.DualIssuePct(),
			StallPct:            prof.StallPct(),
		}
	}
	b.ReportMetric(row.CyclesPerTransition, "cycles/transition")
	b.ReportMetric(row.CPI, "CPI")
	b.ReportMetric(row.DualIssuePct, "dual%")
	b.ReportMetric(row.StallPct, "stall%")
	b.ReportMetric(float64(tl.LastProgram.RegsUsed), "registers")
	b.ReportMetric(float64(tl.LastProgram.Spills), "spills")
}

func BenchmarkTable1V1Scalar(b *testing.B)  { benchTable1(b, 1) }
func BenchmarkTable1V2SIMD(b *testing.B)    { benchTable1(b, 2) }
func BenchmarkTable1V3Unroll2(b *testing.B) { benchTable1(b, 3) }
func BenchmarkTable1V4Unroll3(b *testing.B) { benchTable1(b, 4) }
func BenchmarkTable1V5Unroll4(b *testing.B) { benchTable1(b, 5) }

// --- Figure 2 ----------------------------------------------------------

func benchFigure2(b *testing.B, spes int, block int64) {
	var agg float64
	for i := 0; i < b.N; i++ {
		agg = eib.AggregateBandwidth(spes, block, 50*sim.Microsecond)
	}
	b.ReportMetric(agg/1e9, "GB/s")
}

func BenchmarkFigure2_1SPE_64B(b *testing.B)  { benchFigure2(b, 1, 64) }
func BenchmarkFigure2_8SPE_64B(b *testing.B)  { benchFigure2(b, 8, 64) }
func BenchmarkFigure2_8SPE_128B(b *testing.B) { benchFigure2(b, 8, 128) }
func BenchmarkFigure2_8SPE_256B(b *testing.B) { benchFigure2(b, 8, 256) }
func BenchmarkFigure2_8SPE_512B(b *testing.B) { benchFigure2(b, 8, 512) }
func BenchmarkFigure2_4SPE_16KB(b *testing.B) { benchFigure2(b, 4, 16384) }
func BenchmarkFigure2_8SPE_16KB(b *testing.B) { benchFigure2(b, 8, 16384) }

// --- Figure 3 is pure arithmetic; asserted in localstore tests ---------

// --- Figure 5 ----------------------------------------------------------

func BenchmarkFigure5DoubleBuffer(b *testing.B) {
	var res pipeline.Figure5Result
	for i := 0; i < b.N; i++ {
		res = pipeline.RunDoubleBuffer(pipeline.Figure5Config{Blocks: 16})
	}
	b.ReportMetric(res.ComputePeriod.Micros(), "compute_us")
	b.ReportMetric(res.TransferTime.Micros(), "transfer_us")
	b.ReportMetric(res.SteadyUtilization*100, "utilization%")
	b.ReportMetric(res.ThroughputGbps, "Gbps")
}

// --- Figures 8 and 9 ----------------------------------------------------

func benchFigure9(b *testing.B, stts, spes int) {
	var res pipeline.ReplacementResult
	for i := 0; i < b.N; i++ {
		res = pipeline.RunReplacement(pipeline.ReplacementConfig{
			STTs: stts, SPEs: spes, Pairs: 4,
		})
	}
	b.ReportMetric(res.SystemGbps, "Gbps")
	b.ReportMetric(pipeline.PaperReplacementGbps(5.11, stts)*float64(spes), "paper_Gbps")
}

func BenchmarkFigure8Replacement3STT(b *testing.B) { benchFigure9(b, 3, 1) }
func BenchmarkFigure9_1SPE_2STT(b *testing.B)      { benchFigure9(b, 2, 1) }
func BenchmarkFigure9_1SPE_4STT(b *testing.B)      { benchFigure9(b, 4, 1) }
func BenchmarkFigure9_8SPE_2STT(b *testing.B)      { benchFigure9(b, 2, 8) }
func BenchmarkFigure9_8SPE_6STT(b *testing.B)      { benchFigure9(b, 6, 8) }

// --- Section 5 / Figures 6-7: composed native scanning ------------------

func benchComposition(b *testing.B, groups int) {
	dict := workload.SignatureDictionary()
	m, err := core.Compile(dict, core.Options{CaseFold: true, Groups: groups})
	if err != nil {
		b.Fatal(err)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 20, MatchEvery: 64 << 10, Dictionary: dict, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Groups1(b *testing.B) { benchComposition(b, 1) }
func BenchmarkFigure6Groups2(b *testing.B) { benchComposition(b, 2) }
func BenchmarkFigure7Groups4(b *testing.B) { benchComposition(b, 4) }
func BenchmarkFigure7Groups8(b *testing.B) { benchComposition(b, 8) }

// --- Parallel speculative scan engine ------------------------------------

// benchParallelSetup compiles the signature dictionary and builds a
// traffic buffer of the given size once per (size) configuration.
func benchParallelSetup(b *testing.B, size int) (*core.Matcher, []byte) {
	b.Helper()
	dict := workload.SignatureDictionary()
	// Filter pinned off: these benches measure the parallel engine's
	// fan-out itself; BenchmarkFilter* measures the skip-scan path.
	m, err := core.Compile(dict, core.Options{
		CaseFold: true,
		Engine:   core.EngineOptions{Filter: core.FilterOff},
	})
	if err != nil {
		b.Fatal(err)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: size, MatchEvery: 64 << 10, Dictionary: dict, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, data
}

// benchScanWorkers measures FindAllParallel at a worker count
// (workers == 0 benches the sequential FindAll baseline). The
// acceptance bar for the engine is >=2x over sequential at 4 workers
// on >=1 MiB inputs on a multicore host.
func benchScanWorkers(b *testing.B, workers, size int) {
	m, data := benchParallelSetup(b, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if workers == 0 {
			_, err = m.FindAll(data)
		} else {
			_, err = m.FindAllParallel(data, core.ParallelOptions{Workers: workers})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanSequential1MiB(b *testing.B)        { benchScanWorkers(b, 0, 1<<20) }
func BenchmarkScanParallel1Worker1MiB(b *testing.B)   { benchScanWorkers(b, 1, 1<<20) }
func BenchmarkScanParallel2Workers1MiB(b *testing.B)  { benchScanWorkers(b, 2, 1<<20) }
func BenchmarkScanParallel4Workers1MiB(b *testing.B)  { benchScanWorkers(b, 4, 1<<20) }
func BenchmarkScanParallel8Workers1MiB(b *testing.B)  { benchScanWorkers(b, 8, 1<<20) }
func BenchmarkScanSequential8MiB(b *testing.B)        { benchScanWorkers(b, 0, 8<<20) }
func BenchmarkScanParallel4Workers8MiB(b *testing.B)  { benchScanWorkers(b, 4, 8<<20) }
func BenchmarkScanParallel8Workers8MiB(b *testing.B)  { benchScanWorkers(b, 8, 8<<20) }
func BenchmarkScanSequential64KiB(b *testing.B)       { benchScanWorkers(b, 0, 64<<10) }
func BenchmarkScanParallel4Workers64KiB(b *testing.B) { benchScanWorkers(b, 4, 64<<10) }

func BenchmarkScanReader4Workers1MiB(b *testing.B) {
	m, data := benchParallelSetup(b, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ScanReader(bytes.NewReader(data), core.ParallelOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compiled kernel engine ----------------------------------------------

// benchKernelSetup compiles the paper's NIDS-style dictionary (the
// 1520-state Figure 3 workload) with the given engine options and
// builds a traffic buffer with sparse planted matches.
func benchKernelSetup(b *testing.B, size int, engine core.EngineOptions) (*core.Matcher, []byte) {
	b.Helper()
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	engine.Filter = core.FilterOff // these benches measure the raw engines
	m, err := core.Compile(pats, core.Options{CaseFold: true, Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: size, MatchEvery: 64 << 10, Dictionary: pats, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, data
}

func benchKernelFindAll(b *testing.B, size int, engine core.EngineOptions, wantEngine string) {
	m, data := benchKernelSetup(b, size, engine)
	if got := m.Stats().Engine; got != wantEngine {
		b.Fatalf("engine = %q, want %q", got, wantEngine)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel is the acceptance benchmark: the dense kernel in its
// default configuration versus BenchmarkSTTLookupSequential below
// (target: >= 1.5x on the same dictionary and input).
func BenchmarkKernel(b *testing.B) {
	benchKernelFindAll(b, 8<<20, core.EngineOptions{}, "kernel")
}

func BenchmarkKernelSequential(b *testing.B) {
	benchKernelFindAll(b, 8<<20, core.EngineOptions{InterleaveK: 1}, "kernel")
}

// BenchmarkKernelLanes is the 1-byte kernel under its lane rule,
// stride pinned to 1: the 8 MiB input scans as 5 lanes (paperbench's
// kernel_interleaved_lanes_MBps row).
func BenchmarkKernelLanes(b *testing.B) {
	benchKernelFindAll(b, 8<<20, core.EngineOptions{Stride: 1}, "kernel")
}

// BenchmarkSTTPathFindAll is the pre-kernel production path (alphabet
// reduce + dfa table walk) on the same workload.
func BenchmarkSTTPathFindAll(b *testing.B) {
	benchKernelFindAll(b, 8<<20, core.EngineOptions{DisableKernel: true}, "stt")
}

// --- Skip-scan front-end (BNDM window filter) ----------------------------

// benchFilterSetup compiles the canonical long-pattern signature
// workload (workload.LongPatternDictionary — the same 48 patterns,
// minimum length 16, that paperbench -filter gates in
// BENCH_filter.json) with the filter in the given mode over
// mostly-benign lowercase traffic — the regime where the
// reverse-suffix window filter skips most input bytes.
func benchFilterSetup(b *testing.B, size int, mode core.FilterMode) (*core.Matcher, []byte) {
	b.Helper()
	pats, err := workload.LongPatternDictionary(48, 16, 40, 5)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Compile(pats, core.Options{Engine: core.EngineOptions{Filter: mode}})
	if err != nil {
		b.Fatal(err)
	}
	if mode == core.FilterOn && !m.Stats().FilterEnabled {
		b.Fatal("filter not enabled")
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: size, MatchEvery: 64 << 10, Dictionary: pats, Seed: 44,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, data
}

// BenchmarkFilter is the acceptance benchmark for the skip-scan
// front-end: versus BenchmarkFilterOffKernel below on the same
// dictionary and traffic (target: >= 2x; BENCH_filter.json banks it).
func BenchmarkFilter(b *testing.B) {
	m, data := benchFilterSetup(b, 8<<20, core.FilterOn)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterOffKernel(b *testing.B) {
	m, data := benchFilterSetup(b, 8<<20, core.FilterOff)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterParallel4Workers(b *testing.B) {
	m, data := benchFilterSetup(b, 8<<20, core.FilterOn)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAllParallel(data, core.ParallelOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTTLookupSequential is the one-bounds-checked-lookup-per-
// byte stt.Table.Lookup scan the kernel replaces: alphabet reduction
// pass plus the pointer-encoded table walk, measured end to end from
// raw input like the kernel is.
func BenchmarkSTTLookupSequential(b *testing.B) {
	_, tab := paperSetup()
	red := alphabet.CaseFold32()
	// Identical traffic to benchKernelSetup: same dictionary planting,
	// same seed, so the two engines scan the same bytes.
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	raw, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 8 << 20, MatchEvery: 64 << 10, Dictionary: pats, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]byte, len(raw))
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red.Apply(scratch, raw)
		tile.ScalarCount(tab, scratch)
	}
}

// benchKernelBigDict scans 8 MiB of traffic with the 30000-state
// workload dictionary (the served bigdict-churn shape) compiled under
// opts, on the dense kernel with the filter off.
func benchKernelBigDict(b *testing.B, opts core.Options) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 30000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts.CaseFold = true
	opts.Engine = core.EngineOptions{Filter: core.FilterOff}
	m, err := core.Compile(pats, opts)
	if err != nil {
		b.Fatal(err)
	}
	if got := m.Stats().Engine; got != "kernel" {
		b.Fatalf("engine = %q, want kernel", got)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 8 << 20, MatchEvery: 64 << 10, Dictionary: pats, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats().Slots), "slots")
}

// BenchmarkKernelBigDictOneSlot scans the big dictionary as the one
// host automaton its dense table fits.
func BenchmarkKernelBigDictOneSlot(b *testing.B) { benchKernelBigDict(b, core.Options{}) }

// BenchmarkKernelBigDictTiles scans the same dictionary on the Figure 3
// tiling, one pass per 1520-state tile.
func BenchmarkKernelBigDictTiles(b *testing.B) {
	benchKernelBigDict(b, core.Options{MaxStatesPerTile: 1520})
}

// BenchmarkKernelParallel composes both engines: the chunked
// goroutine scan with the dense kernel underneath.
func BenchmarkKernelParallel4Workers(b *testing.B) {
	m, data := benchKernelSetup(b, 8<<20, core.EngineOptions{})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAllParallel(data, core.ParallelOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded multi-kernel engine ------------------------------------------

// benchShardedSetup compiles a dictionary roughly 4x the paper tile
// (6000 states) against a 256 KiB per-shard budget — the SPE
// local-store figure — so the dense kernel cannot fit and the ladder
// lands on the requested tier.
func benchShardedSetup(b *testing.B, size int, engine core.EngineOptions, wantEngine string) (*core.Matcher, []byte) {
	b.Helper()
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 6000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Compile(pats, core.Options{CaseFold: true, Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	if got := m.Stats().Engine; got != wantEngine {
		b.Fatalf("engine = %q, want %q", got, wantEngine)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: size, MatchEvery: 64 << 10, Dictionary: pats, Seed: 22,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, data
}

const benchShardBudget = 256 << 10

// BenchmarkShardedSequential is the acceptance benchmark: the
// chunk-interleaved sharded scan versus BenchmarkShardedSTTFallback on
// the same over-budget dictionary (target: >= 2x).
func BenchmarkShardedSequential(b *testing.B) {
	m, data := benchShardedSetup(b, 8<<20, core.EngineOptions{MaxTableBytes: benchShardBudget}, "sharded")
	b.ReportMetric(float64(m.Stats().Shards), "shards")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedParallel4Workers fans the shard x chunk work items
// across 4 workers — the one-shard-set-per-worker schedule.
func BenchmarkShardedParallel4Workers(b *testing.B) {
	m, data := benchShardedSetup(b, 8<<20, core.EngineOptions{MaxTableBytes: benchShardBudget}, "sharded")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAllParallel(data, core.ParallelOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSTTFallback is the comparator: the same over-budget
// dictionary with sharding disabled, i.e. what every scan paid before
// the sharded tier existed.
func BenchmarkShardedSTTFallback(b *testing.B) {
	m, data := benchShardedSetup(b, 8<<20,
		core.EngineOptions{MaxTableBytes: benchShardBudget, MaxShards: -1}, "stt")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FindAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Native production path ---------------------------------------------

func BenchmarkNativeScalar(b *testing.B) {
	_, tab := paperSetup()
	input := paperInput(1<<20, 9)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.ScalarCount(tab, input)
	}
}

func BenchmarkNativeInterleaved16(b *testing.B) {
	_, tab := paperSetup()
	input := paperInput(1<<20, 10)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tile.InterleavedCount16(tab, input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeInterleavedUnroll3(b *testing.B) {
	_, tab := paperSetup()
	n := (1 << 20) / 48 * 48
	input := paperInput(n, 11)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tile.InterleavedCount16Unrolled(tab, input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamAPI(b *testing.B) {
	dict := workload.SignatureDictionary()
	m, err := core.Compile(dict, core.Options{CaseFold: true})
	if err != nil {
		b.Fatal(err)
	}
	data, _, _ := workload.Traffic(workload.TrafficConfig{Bytes: 1 << 18, Seed: 12})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.NewStream()
		for off := 0; off < len(data); off += 1500 { // MTU-sized chunks
			end := off + 1500
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[off:end])
		}
		_ = s.Matches()
	}
}

// --- Ablations (DESIGN.md section 5) -------------------------------------

// Pointer-encoded states vs index-encoded states.
func BenchmarkAblationPointerEncoding(b *testing.B) {
	_, tab := paperSetup()
	input := paperInput(1<<19, 13)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.ScalarCount(tab, input)
	}
}

func BenchmarkAblationIndexEncoding(b *testing.B) {
	d, _ := paperSetup()
	input := paperInput(1<<19, 13)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.IndexedCount(d.Next, d.Accept, d.Syms, d.Start, input)
	}
}

// 32-symbol reduced alphabet vs full 256-symbol rows: same automaton,
// 8x the STT memory (which is the paper's entire motivation for the
// reduction: 4x more states per tile at width 32 vs 128/256).
func BenchmarkAblationAlphabet32(b *testing.B) {
	d, _ := paperSetup()
	tab, err := stt.Encode(d, 32, 0)
	if err != nil {
		b.Fatal(err)
	}
	input := paperInput(1<<19, 14)
	b.SetBytes(int64(len(input)))
	b.ReportMetric(float64(tab.SizeBytes())/1024, "stt_KB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.ScalarCount(tab, input)
	}
}

func BenchmarkAblationAlphabet256(b *testing.B) {
	d, _ := paperSetup()
	tab, err := stt.Encode(d, 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	input := paperInput(1<<19, 14)
	b.SetBytes(int64(len(input)))
	b.ReportMetric(float64(tab.SizeBytes())/1024, "stt_KB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.ScalarCount(tab, input)
	}
}

// Unroll-factor sweep on the simulated SPU (the Table 1 crossover).
func BenchmarkAblationUnrollSweep(b *testing.B) {
	for v := 2; v <= 5; v++ {
		v := v
		b.Run(fmt.Sprintf("unroll%d", tileUnroll(v)), func(b *testing.B) {
			benchTable1(b, v)
		})
	}
}

func tileUnroll(version int) int {
	switch version {
	case 3:
		return 2
	case 4:
		return 3
	case 5:
		return 4
	default:
		return 1
	}
}

// Content independence: the DFA's cost on benign vs adversarial input.
func BenchmarkContentDependenceDFABenign(b *testing.B) {
	benchDFAContent(b, false)
}

func BenchmarkContentDependenceDFAAdversarial(b *testing.B) {
	benchDFAContent(b, true)
}

func benchDFAContent(b *testing.B, adversarial bool) {
	_, tab := paperSetup()
	var input []byte
	if adversarial {
		input = make([]byte, 1<<19)
		for i := range input {
			input[i] = 1
		}
	} else {
		input = paperInput(1<<19, 15)
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.ScalarCount(tab, input)
	}
}

func BenchmarkContentDependenceBMHBenign(b *testing.B) {
	benchBMHContent(b, false)
}

func BenchmarkContentDependenceBMHAdversarial(b *testing.B) {
	benchBMHContent(b, true)
}

func benchBMHContent(b *testing.B, adversarial bool) {
	pattern := append([]byte{'b'}, make([]byte, 15)...)
	for i := 1; i < len(pattern); i++ {
		pattern[i] = 'a'
	}
	m, err := baseline.NewBMH(pattern)
	if err != nil {
		b.Fatal(err)
	}
	var input []byte
	if adversarial {
		input = workload.AdversarialBMH(pattern, 1<<19)
	} else {
		input, _, _ = workload.Traffic(workload.TrafficConfig{Bytes: 1 << 19, Seed: 16})
	}
	b.SetBytes(int64(len(input)))
	var cmp int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cmp = m.Count(input)
	}
	b.ReportMetric(float64(cmp)/float64(len(input)), "comparisons/byte")
}

// --- Baselines -----------------------------------------------------------

func BenchmarkBaselineKMP(b *testing.B) {
	pattern := []byte("XPCMDSHELL")
	m, err := baseline.NewKMP(pattern)
	if err != nil {
		b.Fatal(err)
	}
	input, _, _ := workload.Traffic(workload.TrafficConfig{Bytes: 1 << 19, Seed: 17})
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(input)
	}
}

func BenchmarkBaselineACMap(b *testing.B) {
	dict := workload.SignatureDictionary()
	m, err := baseline.NewACMap(dict)
	if err != nil {
		b.Fatal(err)
	}
	input, _, _ := workload.Traffic(workload.TrafficConfig{Bytes: 1 << 19, Seed: 18})
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(input)
	}
}

func BenchmarkBaselineBloomPrefilter(b *testing.B) {
	dict := workload.SignatureDictionary()
	fl, err := baseline.NewBloom(dict, 4, 14, 3)
	if err != nil {
		b.Fatal(err)
	}
	input, _, _ := workload.Traffic(workload.TrafficConfig{Bytes: 1 << 19, Seed: 19})
	b.SetBytes(int64(len(input)))
	var hits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = len(fl.FilterPositions(input))
	}
	b.ReportMetric(float64(hits)/float64(len(input))*100, "passrate%")
}

// --- Dictionary partitioning at scale -------------------------------------

func BenchmarkCompileLargeDictionary(b *testing.B) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 6000, Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := compose.NewSystem(pats, compose.Config{CaseFold: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = sys
	}
}
