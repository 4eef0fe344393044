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
//
// One chunk scheduler (schedule) cuts every payload into the ChunkBytes
// grid and submits each chunk's jobs to a Group once the chunk's bytes,
// overlap prefix included, are present. Scan and ScanReader hand it
// bytes that are all present already. ScanArriving hands it a body
// while the body is still being read, which is the paper's double
// buffering (Section 4, Figure 5): there one buffer fills by DMA while
// the SPU matches the other, so the block transfer hides under the
// scan; here the reading goroutine keeps reading the body into one
// buffer while the pool workers scan the chunks that have already
// arrived. The chunk grid, the overlap dedupe and the merge are the
// same either way, so the output is too.
package parallel

import (
	"fmt"
	"io"
	"runtime"
	"slices"
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
// each such chunk scans as 5 lanes of about 13 KiB (the kernel's
// piece-length rule takes every piece of 1 KiB or more; InterleaveK 1
// pins the serial loop instead).
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
	// onto one fixed set of scanning threads. A payload of one job
	// still runs on the caller. Workers is ignored for execution (the
	// pool's size governs) but still bounds ScanReader's batch sizing.
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
	return scanChunks(data, overlapOf(sys), o).merge(0, 0), nil
}

// scanChunks scans data, every byte of which is present, through one
// schedule and returns it once every job has run.
func scanChunks(data []byte, overlap int, o Options) *schedule {
	g := o.group(o.jobs(len(data)))
	s := newSchedule(o, overlap, len(data), g)
	s.arrived(data)
	g.Wait()
	return s
}

// ScanArriving reads a payload of declared length n >= 0 from r with
// ReadDeclared into buf and scans it while it arrives: each chunk of
// Scan's grid is submitted to the workers as soon as its bytes,
// overlap prefix included, have been read, and the calling goroutine
// keeps reading while they scan. Only the calling goroutine reads r.
// It returns the bytes read, their matches — identical to Scan over
// them — and the read's error; on a failed read the matches are nil
// and data holds what arrived. Every job has finished, and none still
// reads the buffer, when ScanArriving returns.
func ScanArriving(sys *compose.System, r io.Reader, n int, buf []byte, opts Options) ([]byte, []dfa.Match, error) {
	if n < 0 {
		return buf[:0], nil, fmt.Errorf("parallel: ScanArriving needs a declared length, got %d", n)
	}
	o := opts.withDefaults(sys)
	g := o.group(o.jobs(n))
	s := newSchedule(o, overlapOf(sys), n, g)
	data, err := ReadDeclared(r, n, buf, s.arrived)
	g.Wait()
	if err != nil {
		return data, nil, err
	}
	return data, s.merge(0, 0), nil
}

// ReadDeclared reads a payload of declared length n from r into buf,
// reusing buf's capacity. n < 0 means undeclared: read to EOF. The
// payload grows buf only as its bytes arrive: when buf is full its
// capacity doubles (from 512 bytes when empty), never past n, so a
// client that declares a large payload and stalls holds no more memory
// than it has sent (within 2x) beyond buf's own capacity. After each
// read that adds bytes, arrived (when non-nil) is called with every
// byte read so far: ScanArriving passes its chunk scheduler there,
// which is how the served /scan double-buffers (Section 4, Figure 5 of
// the paper), submitting each chunk while the rest of the body is
// still on the wire. A declared payload that ends short of n is
// io.ErrUnexpectedEOF; on any error the bytes that did arrive are
// returned with it.
func ReadDeclared(r io.Reader, n int, buf []byte, arrived func([]byte)) ([]byte, error) {
	buf = buf[:0]
	for n < 0 || len(buf) < n {
		if len(buf) == cap(buf) {
			grow := max(len(buf), 512)
			if n >= 0 {
				grow = min(grow, n-len(buf))
			}
			buf = slices.Grow(buf, grow)
		}
		limit := cap(buf)
		if n >= 0 {
			limit = min(limit, n)
		}
		m, err := r.Read(buf[len(buf):limit])
		if m > 0 {
			buf = buf[:len(buf)+m]
			if arrived != nil {
				arrived(buf)
			}
		}
		if len(buf) == n {
			break
		}
		if err == io.EOF {
			if n < 0 {
				break
			}
			return buf, io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// schedule is the one chunk scheduler, shared by every scan mode. It
// cuts a payload of n bytes into ChunkBytes-sized chunks and submits
// each chunk to g as Verifier.Units() work items (one per shard on the
// sharded rung) as soon as the chunk's bytes, overlap prefix included,
// are present. Extra memory is O(Workers x ChunkBytes) instead of
// O(input) on top of the payload, and the bookkeeping grows only with
// the chunks submitted, so a payload that is declared but never sent
// costs nothing.
type schedule struct {
	o       Options
	overlap int
	n       int
	g       *Group
	// results[i][u] holds chunk i / unit u's matches in payload
	// coordinates, already deduplicated against chunk i-1's overlap.
	results [][][]dfa.Match
}

func newSchedule(o Options, overlap, n int, g *Group) *schedule {
	return &schedule{o: o, overlap: overlap, n: n, g: g}
}

// jobs counts the work items of a payload of n bytes.
func (o Options) jobs(n int) int {
	chunks := n / o.ChunkBytes
	if n%o.ChunkBytes != 0 {
		chunks++
	}
	return chunks * o.Verifier.Units()
}

// arrived submits every chunk not yet submitted that lies wholly in
// data, the payload's first len(data) bytes. data may move between
// calls (a grown buffer); a submitted job keeps scanning the bytes it
// was handed, which never change.
func (s *schedule) arrived(data []byte) {
	units := s.o.Verifier.Units()
	for {
		start := len(s.results) * s.o.ChunkBytes
		end := min(start+s.o.ChunkBytes, s.n)
		if start >= s.n || end > len(data) {
			return
		}
		ov := min(s.overlap, start)
		piece := data[start-ov : end]
		segs := s.o.segmentProvider(piece)
		res := make([][]dfa.Match, units)
		s.results = append(s.results, res)
		for u := range units {
			s.g.Go(func() { res[u] = scanPiece(piece, start-ov, ov, s.o, u, segs) })
		}
	}
}

// merge flattens the chunk results into one sorted slice, dropping
// matches whose End is <= dedupe (already reported by a previous
// reader batch) and shifting the rest by base. Call it after the
// group's Wait.
func (s *schedule) merge(base, dedupe int) []dfa.Match {
	total := 0
	for _, c := range s.results {
		for _, u := range c {
			total += len(u)
		}
	}
	out := make([]dfa.Match, 0, total)
	for _, c := range s.results {
		for _, u := range c {
			for _, m := range u {
				if m.End <= dedupe {
					continue
				}
				m.End += base
				out = append(out, m)
			}
		}
	}
	dfa.SortMatches(out)
	return out
}

// group is where a call's jobs run: inline on the caller when there is
// at most one job, since handing a lone job to a worker only races the
// caller's Wait for it; else the shared Pool when one is set; else, in
// the one-shot mode, a pool of its own closed by Wait, whose workers
// plus the caller helping in Wait make up to Workers goroutines; else
// inline on the caller, when there is no parallelism to exploit.
func (o Options) group(jobs int) *Group {
	if jobs <= 1 {
		return (*Pool)(nil).Group()
	}
	if o.Pool != nil {
		return o.Pool.Group()
	}
	if w := min(o.Workers, jobs); w > 1 {
		g := NewPool(w - 1).Group()
		g.own = true
		return g
	}
	return (*Pool)(nil).Group()
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
		out = append(out, scanChunks(data, overlap, o).merge(base, carry)...)
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
