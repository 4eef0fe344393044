package core

import (
	"io"

	"cellmatch/internal/parallel"
)

// ParallelOptions tune the chunked speculative scan engine. The zero
// value scans with one worker per CPU and 64 KiB chunks.
type ParallelOptions struct {
	// Workers is the goroutine pool size. <=0 means GOMAXPROCS.
	Workers int
	// ChunkBytes is the per-worker input slice size. <=0 means 64 KiB.
	// Any positive value is legal, including sizes smaller than the
	// longest dictionary entry.
	ChunkBytes int
	// Pool, when non-nil, executes chunk jobs on a persistent shared
	// worker pool (parallel.NewPool) instead of spawning goroutines per
	// call — the long-running-server mode. Many concurrent scans share
	// the pool's fixed worker set.
	Pool *parallel.Pool
	// ScanOptions are the per-call opt-outs (the serving layer's
	// filter=off and stride=1 knobs). Output is byte-identical either
	// way.
	ScanOptions
}

// engineOpts binds the call's verifier (see Matcher.verifier) into
// the worker options. The skip-scan front-end, when live and not
// bypassed, runs per chunk inside each worker; its skip counter feeds
// the matcher's WindowsSkipped stat.
func (m *Matcher) engineOpts(o ParallelOptions) parallel.Options {
	po := parallel.Options{
		Workers: o.Workers, ChunkBytes: o.ChunkBytes, Pool: o.Pool,
		Verifier: m.verifier(o.ScanOptions),
	}
	if m.filter != nil && !o.DisableFilter {
		po.Filter = m.filter
		po.FilterSkipped = &m.windowsSkipped
	}
	return po
}

// FindAllParallel reports every dictionary occurrence in data, like
// FindAll, but scans chunks of data concurrently: each worker starts
// from the speculative root state and chunk boundaries are reconciled
// by re-scanning an overlap window of MaxPatternLen-1 bytes. The
// result is byte-for-byte identical to FindAll — same matches, same
// (End, Pattern) order — for every worker count and chunk size.
func (m *Matcher) FindAllParallel(data []byte, opts ParallelOptions) ([]Match, error) {
	raw, err := parallel.Scan(m.sys, data, m.engineOpts(opts))
	if err != nil {
		return nil, err
	}
	return convertMatches(raw), nil
}

// ReadFindAll reads a payload of declared length n >= 0 from r into
// buf — its capacity reused, grown only as bytes arrive — and scans it
// while it arrives: each chunk of FindAllParallel's grid goes to the
// workers as soon as its bytes, overlap prefix included, have been
// read, so the scan of the early chunks overlaps the read of the later
// ones (the paper's double buffering, Section 4). Only the calling
// goroutine reads r. It returns the bytes read, their matches —
// byte-identical to FindAllParallel over them — and the read's error:
// a payload that ends short of n is io.ErrUnexpectedEOF, and data then
// holds what did arrive. No scan still reads data once ReadFindAll
// returns, so the caller may recycle it.
func (m *Matcher) ReadFindAll(r io.Reader, n int, buf []byte, opts ParallelOptions) ([]byte, []Match, error) {
	data, raw, err := parallel.ScanArriving(m.sys, r, n, buf, m.engineOpts(opts))
	if err != nil {
		return data, nil, err
	}
	return data, convertMatches(raw), nil
}

// ScanReader scans r to EOF in batches of Workers x ChunkBytes bytes,
// each batch scanned by the parallel engine, carrying the overlap
// window between batches. Matches are identical to FindAll over the
// reader's entire contents, with global End offsets, but memory stays
// O(Workers x ChunkBytes), making it the batched-streaming entry
// point for sockets and files too large to buffer.
func (m *Matcher) ScanReader(r io.Reader, opts ParallelOptions) ([]Match, error) {
	raw, err := parallel.ScanReader(m.sys, r, m.engineOpts(opts))
	if err != nil {
		return nil, err
	}
	return convertMatches(raw), nil
}
