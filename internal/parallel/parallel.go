// Package parallel is the host-CPU analogue of the paper's Figure 6a
// composition: one DFA tiled across many workers scanning disjoint
// input slices. Where the paper assigns input portions to SPEs, this
// engine assigns fixed-size chunks to goroutines; where the paper's
// tiles overlap their portions by the longest pattern length minus
// one, each chunk here is re-scanned from a speculative root start
// over the same bounded overlap window, in the style of speculative
// parallel DFA matching (Ko et al.): every worker guesses the
// root state at its chunk boundary and the guess is reconciled by the
// overlap prefix, whose matches are discarded as duplicates of the
// previous chunk.
//
// For Aho-Corasick automata the speculation is exact, not heuristic:
// a match ending at offset e depends only on the MaxPatternLen bytes
// before e, so scanning from the root over an overlap of
// MaxPatternLen-1 bytes recovers every boundary-straddling match.
// Results are therefore byte-for-byte identical to the sequential
// scan — same match set, same (End, Pattern) order — for every
// worker count and chunk size, which the differential fuzz target
// FuzzParallelEquivalence asserts.
//
// The package is written once against the kernel.Verifier contract:
// Options.Verifier is the single dispatch point, each chunk fans into
// Verifier.Units() work items scanned by Verifier.ScanUnit with the
// overlap prefix as the dedupe offset, and no code here names a rung.
// Adding or removing a rung therefore never touches this package.
package parallel

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/filter"
	"cellmatch/internal/kernel"
)

// DefaultChunkBytes is the per-worker slice size when Options leaves
// it zero: 64 KiB keeps per-chunk state in L1/L2 while amortizing the
// overlap re-scan (a few dozen bytes) to noise. On the dense kernel
// each such chunk scans as 4 interleaved lanes of 16 KiB (the
// kernel's piece-length rule takes every piece of 2 KiB or more;
// InterleaveK 1 pins the serial loop instead).
const DefaultChunkBytes = 64 << 10

// Options tune the engine. The zero value means "one chunk per
// 64 KiB, one worker per CPU".
type Options struct {
	// Workers is the goroutine pool size. <=0 means GOMAXPROCS.
	Workers int
	// ChunkBytes is the per-worker slice size. <=0 means
	// DefaultChunkBytes. Chunks smaller than the longest pattern are
	// legal (the overlap window is clamped to the available prefix).
	ChunkBytes int
	// Verifier scans each chunk: any rung of the selection ladder
	// (kernel.Verifier), the one dispatch point of this package. Each
	// chunk fans into Verifier.Units() work items — one per shard on the
	// sharded rung, so each worker keeps a single shard's tables
	// cache-hot (the paper's one-shard-per-SPE schedule mapped onto the
	// pool). Nil means the stt path over the composed system
	// (kernel.NewSTT). Results are identical on every rung.
	Verifier kernel.Verifier
	// Pool, when non-nil, submits chunk jobs to a persistent shared
	// worker pool instead of spawning goroutines per call — the
	// long-running-server mode, where many concurrent scans coalesce
	// onto one fixed set of scanning threads. Workers is ignored for
	// execution (the pool's size governs) but still bounds ScanReader's
	// batch sizing.
	Pool *Pool
	// Filter, when non-nil, runs the skip-scan front-end over each
	// chunk piece (overlap prefix included): only candidate segments
	// pass through the configured engine, and the usual overlap dedupe
	// applies afterwards, so results stay byte-identical to the
	// unfiltered scan. Windows straddling a chunk boundary re-form in
	// the next chunk's overlap-prefixed view, exactly like matches do.
	Filter *filter.Filter
	// FilterSkipped, when non-nil, accumulates the window positions
	// the filter skipped (the owning matcher's WindowsSkipped counter).
	// Each chunk is filtered once, shared across the sharded engine's
	// per-shard work items, so the stat counts every chunk exactly once.
	FilterSkipped *atomic.Uint64
}

func (o Options) withDefaults(sys *compose.System) Options {
	if o.Verifier == nil {
		o.Verifier = kernel.NewSTT(sys)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	return o
}

// overlapOf is the reconciliation window: the longest dictionary
// entry minus one, the same bound compose.Scan uses for tile groups.
func overlapOf(sys *compose.System) int {
	if sys.MaxPatternLen > 0 {
		return sys.MaxPatternLen - 1
	}
	return 0
}

// Scan matches data against the composed system using a chunked
// speculative scan, returning global-offset matches sorted by
// (End, Pattern) — the exact output of compose.System.Scan.
func Scan(sys *compose.System, data []byte, opts Options) ([]dfa.Match, error) {
	o := opts.withDefaults(sys)
	chunks := scanChunks(data, overlapOf(sys), o)
	out := mergeChunks(chunks, 0, 0)
	return out, nil
}

// scanChunks splits raw data into ChunkBytes-sized pieces and scans
// them on a pool of Workers goroutines (or Options.Pool's shared
// workers), keeping the extra memory O(Workers x ChunkBytes) instead
// of O(input). Each chunk fans into one work item per verifier unit
// (Verifier.Units); results[i*units+u] holds chunk i / unit u's
// matches in data's coordinates, already deduplicated against chunk
// i-1's overlap. The flat slice order is irrelevant downstream —
// mergeChunks re-sorts globally.
func scanChunks(data []byte, overlap int, o Options) [][]dfa.Match {
	n := len(data)
	if n == 0 {
		return nil
	}
	nchunks := (n + o.ChunkBytes - 1) / o.ChunkBytes
	units := o.Verifier.Units()
	results := make([][]dfa.Match, nchunks*units)
	tasks := make([]func(), 0, nchunks*units)
	for i := 0; i < nchunks; i++ {
		start := i * o.ChunkBytes
		end := min(start+o.ChunkBytes, n)
		ov := min(overlap, start)
		segs := o.segmentProvider(data[start-ov : end])
		for u := 0; u < units; u++ {
			i, u := i, u
			tasks = append(tasks, func() {
				results[i*units+u] = scanPiece(data[start-ov:end], start-ov, ov, o, u, segs)
			})
		}
	}
	runTasks(o, tasks)
	return results
}

// segmentProvider returns a compute-once view of the filter's verify
// segments for one piece, shared by every shard unit of the chunk so
// the front-end scan runs once per chunk, not once per (shard, chunk)
// work item. The skip counter is credited exactly once, by whichever
// unit computes first. Nil when the filter is off.
func (o Options) segmentProvider(piece []byte) func() []filter.Segment {
	if o.Filter == nil {
		return nil
	}
	return sync.OnceValue(func() []filter.Segment {
		segs, skipped := o.Filter.Segments(piece)
		if o.FilterSkipped != nil {
			o.FilterSkipped.Add(uint64(skipped))
		}
		return segs
	})
}

// scanPiece scans one overlap-prefixed piece from the speculative root
// with verifier unit unit, returning data-coordinate matches with the
// ov-byte overlap prefix deduplicated. segs is the chunk's shared
// segment provider (nil when the filter is off): then only the piece's
// candidate segments are verified, each from the root. Any match fully
// inside the piece starts at a candidate and lies wholly inside one
// segment (the filter's containment guarantee applied to the piece as
// an isolated text), so the segment union reports exactly the matches
// the whole-piece scan would; the overlap dedupe then drops matches
// ending inside the ov-byte prefix as usual.
func scanPiece(piece []byte, base, ov int, o Options, unit int, segs func() []filter.Segment) []dfa.Match {
	if segs == nil {
		return o.Verifier.ScanUnit(unit, piece, base, ov)
	}
	var out []dfa.Match
	for _, sg := range segs() {
		for _, mt := range o.Verifier.ScanUnit(unit, piece[sg.Start:sg.End], base+sg.Start, 0) {
			if mt.End-base <= ov {
				continue // ends inside the reconciliation window
			}
			out = append(out, mt)
		}
	}
	return out
}

// runTasks executes the chunk jobs: on the shared pool when one is
// configured, otherwise on up to Workers ad-hoc goroutines (the
// one-shot mode), inline when there is no parallelism to exploit.
func runTasks(o Options, tasks []func()) {
	if o.Pool != nil {
		o.Pool.Run(tasks)
		return
	}
	workers := min(o.Workers, len(tasks))
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i]()
			}
		}()
	}
	wg.Wait()
}

// mergeChunks flattens per-chunk results into one sorted slice,
// dropping matches whose local End is <= dedupe (already reported by
// a previous reader batch) and shifting the rest by base.
func mergeChunks(chunks [][]dfa.Match, base, dedupe int) []dfa.Match {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]dfa.Match, 0, total)
	for _, c := range chunks {
		for _, m := range c {
			if m.End <= dedupe {
				continue
			}
			m.End += base
			out = append(out, m)
		}
	}
	dfa.SortMatches(out)
	return out
}

// ScanMany scans every payload independently — one result slice per
// payload, each byte-identical to Scan over that payload alone — but
// flattens all payloads' chunk jobs into a single task set executed in
// one pass over the worker pool. This is the batch-coalescing
// primitive behind the server's /scan/batch endpoint: many small
// requests cost one pool submission instead of one goroutine fan-out
// each. Payloads larger than ChunkBytes are still chunked with the
// usual overlap reconciliation.
func ScanMany(sys *compose.System, payloads [][]byte, opts Options) ([][]dfa.Match, error) {
	o := opts.withDefaults(sys)
	overlap := overlapOf(sys)
	units := o.Verifier.Units()
	out := make([][]dfa.Match, len(payloads))
	perPayload := make([][][]dfa.Match, len(payloads))
	var tasks []func()
	for pi, data := range payloads {
		n := len(data)
		if n == 0 {
			continue
		}
		nchunks := (n + o.ChunkBytes - 1) / o.ChunkBytes
		perPayload[pi] = make([][]dfa.Match, nchunks*units)
		for ci := 0; ci < nchunks; ci++ {
			start := ci * o.ChunkBytes
			end := min(start+o.ChunkBytes, n)
			ov := min(overlap, start)
			segs := o.segmentProvider(data[start-ov : end])
			for u := 0; u < units; u++ {
				pi, ci, u, data := pi, ci, u, data
				tasks = append(tasks, func() {
					perPayload[pi][ci*units+u] = scanPiece(data[start-ov:end], start-ov, ov, o, u, segs)
				})
			}
		}
	}
	runTasks(o, tasks)
	for pi := range payloads {
		out[pi] = mergeChunks(perPayload[pi], 0, 0)
	}
	return out, nil
}

// ScanReader scans r in batches of Workers x ChunkBytes, carrying the
// last MaxPatternLen-1 bytes between batches so matches spanning a
// batch boundary are recovered exactly once. The returned matches are
// identical to Scan over the reader's whole contents; memory is
// O(Workers x ChunkBytes + matches), not O(input).
func ScanReader(sys *compose.System, r io.Reader, opts Options) ([]dfa.Match, error) {
	o := opts.withDefaults(sys)
	overlap := overlapOf(sys)
	batch := o.Workers * o.ChunkBytes
	if batch/o.Workers != o.ChunkBytes { // overflow
		batch = o.ChunkBytes
	}
	buf := make([]byte, overlap+batch)
	carry := 0 // bytes of buf holding the previous batch's tail
	base := 0  // global offset of buf[0]
	var out []dfa.Match
	for {
		n, err := io.ReadFull(r, buf[carry:])
		if n == 0 {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("parallel: read: %w", err)
			}
		}
		data := buf[:carry+n]
		chunks := scanChunks(data, overlap, o)
		out = append(out, mergeChunks(chunks, base, carry)...)
		keep := min(overlap, len(data))
		copy(buf, data[len(data)-keep:])
		base += len(data) - keep
		carry = keep
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parallel: read: %w", err)
		}
	}
	return out, nil
}
