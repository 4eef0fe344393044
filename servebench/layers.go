package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"cellmatch/internal/compose"
	"cellmatch/internal/core"
	"cellmatch/internal/filter"
	"cellmatch/internal/kernel"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

// replay re-runs the layers of a sample of traced requests on the same
// payloads, each call timed as a span under the request's handler span.
// It runs after the load has stopped, so the calls see an idle server.
type replay struct {
	bytes        float64
	findall, seq time.Duration
	segments     time.Duration
	scan, verify time.Duration
	windows      int64
	skipped      int64
	segBytes     int64
	encodeUS     []float64
	encodeBytes  int64
	unattributed []float64 // handler minus replayed findall and encode, ms
	n            int
	failed       int
	firstErr     string
}

func (rp *replay) fail(err error) {
	rp.failed++
	if rp.firstErr == "" {
		rp.firstErr = err.Error()
	}
}

// runReplay replays up to samples traced requests, evenly spaced over
// the traced window.
func runReplay(tr *tracer, st *stack, payloads [][]byte, refs [][]core.Match, samples int) (*replay, error) {
	ids := tr.complete()
	if len(ids) == 0 {
		return nil, errors.New("no traced request completed")
	}
	step := max(1, len(ids)/samples)
	rp := &replay{}
	var (
		filt    *filter.Filter
		filtFor *core.Matcher
	)
	for i := 0; i < len(ids) && rp.n < samples; i += step {
		id := ids[i]
		tr.mu.Lock()
		req := *tr.reqs[id]
		tr.mu.Unlock()
		p, ref := payloads[req.payload], refs[req.payload]
		e := st.reg.Current()
		m := e.Matcher
		if filtFor != m {
			f, err := filter.Build(patternsOf(m), m.System().Red)
			if err != nil {
				return nil, fmt.Errorf("filter.Build: %w", err)
			}
			filt, filtFor = f, m
		}
		k := spanReplay
		timed := func(name string, fn func()) time.Duration {
			t0 := time.Now()
			fn()
			t1 := time.Now()
			tr.record(id, k, spanHandler, name, t0, t1)
			k++
			return t1.Sub(t0)
		}
		check := func(layer string, got []core.Match, err error) {
			if err == nil && !slices.Equal(got, ref) {
				err = fmt.Errorf("%s: %d matches differ from the %d-match reference", layer, len(got), len(ref))
			}
			if err != nil {
				rp.fail(fmt.Errorf("payload %d: %w", req.payload, err))
			}
		}

		var got []core.Match
		var err error
		dFind := timed("core.findall", func() {
			got, err = m.FindAllParallel(p, core.ParallelOptions{Pool: st.srv.Pool()})
		})
		check("FindAllParallel", got, err)
		rp.seq += timed("core.findall_seq", func() { got, err = m.FindAll(p) })
		check("FindAll", got, err)
		var segs []filter.Segment
		var skipped int64
		rp.segments += timed("filter.segments", func() { segs, skipped = filt.Segments(p) })
		rp.scan += timed("kernel.scan", func() { got, err = m.FindAllUnfiltered(p) })
		check("FindAllUnfiltered", got, err)
		var verified []core.Match
		rp.verify += timed("kernel.verify", func() {
			for _, sg := range segs {
				seg, verr := m.FindAllUnfiltered(p[sg.Start:sg.End])
				if verr != nil {
					err = verr
					return
				}
				for _, x := range seg {
					verified = append(verified, core.Match{Pattern: x.Pattern, End: x.End + sg.Start})
				}
			}
		})
		check("segment verify", verified, err)

		resp := scanResponse(e, p, ref)
		var enc []byte
		dEnc := timed("server.encode", func() { enc, err = json.Marshal(resp) })
		if err != nil {
			rp.fail(err)
		}

		rp.findall += dFind
		rp.n++
		rp.bytes += float64(len(p))
		rp.windows += int64(max(0, len(p)-filt.Window+1))
		rp.skipped += skipped
		for _, sg := range segs {
			rp.segBytes += int64(sg.End - sg.Start)
		}
		rp.encodeUS = append(rp.encodeUS, float64(dEnc)/float64(time.Microsecond))
		rp.encodeBytes += int64(len(enc))
		rp.unattributed = append(rp.unattributed, ms(req.handler-dFind-dEnc))
	}
	return rp, nil
}

// scanResponse builds the reply the server renders for a /scan of p,
// from the reference matches.
func scanResponse(e *registry.Entry, p []byte, ref []core.Match) server.ScanResponse {
	m := e.Matcher
	resp := server.ScanResponse{
		Tenant: registry.DefaultTenant, Generation: e.Generation, Source: e.Source,
		Engine: m.EngineName(), Filter: m.FilterActive(), Stride: m.Stride(),
		Bytes: len(p), Count: len(ref), Matches: make([]server.MatchJSON, len(ref)),
	}
	for i, r := range ref {
		start := r.End - len(m.Pattern(r.Pattern))
		resp.Matches[i] = server.MatchJSON{Pattern: r.Pattern, Start: start, End: r.End, Text: string(p[start:r.End])}
	}
	return resp
}

func patternsOf(m *core.Matcher) [][]byte {
	out := make([][]byte, m.NumPatterns())
	for i := range out {
		out[i] = m.Pattern(i)
	}
	return out
}

// phases are the compile and reload layers timed as direct calls.
type phases struct {
	compileMS, dfaMS, kernelMS float64
	deltaMS, parseMS           float64
	swapUS                     float64
}

// timePhases times each compile and reload phase reps times and keeps
// the medians. engine names the live rung, whose builder kernel.build
// times.
func timePhases(in inputs, basePath string, engine string, reps int) (phases, error) {
	var ph phases
	opts := daemonOptions(in.caseFold)
	var compile, dfaB, kern, delta, parse, swap []float64
	var m *core.Matcher
	for range reps {
		t0 := time.Now()
		cm, err := core.Compile(in.base, opts)
		if err != nil {
			return ph, err
		}
		compile = append(compile, ms(time.Since(t0)))
		m = cm

		t0 = time.Now()
		sys, err := compose.NewSystem(in.base, compose.Config{CaseFold: in.caseFold})
		if err != nil {
			return ph, err
		}
		dfaB = append(dfaB, ms(time.Since(t0)))

		t0 = time.Now()
		switch engine {
		case "kernel", "stride2":
			_, err = kernel.Compile(sys, kernel.Options{})
		case "compressed":
			_, err = kernel.CompileCompressed(sys, kernel.Options{MaxTableBytes: kernel.L2Budget})
		case "sharded":
			_, err = kernel.CompileSharded(in.base, kernel.ShardConfig{CaseFold: in.caseFold})
		default:
			return ph, fmt.Errorf("kernel build: no builder for rung %q", engine)
		}
		if err != nil {
			return ph, fmt.Errorf("kernel build (%s): %w", engine, err)
		}
		kern = append(kern, ms(time.Since(t0)))
	}
	// Deltas alternate between the reload versions like the reloads
	// do, each patching the previous matcher; the first, from base, is
	// not timed.
	cur, _, err := m.RecompileDelta(in.reloads[0])
	if err != nil {
		return ph, err
	}
	for i := range 2 * reps {
		next := in.reloads[(i+1)%2]
		t0 := time.Now()
		nm, _, err := cur.RecompileDelta(next)
		if err != nil {
			return ph, err
		}
		delta = append(delta, ms(time.Since(t0)))
		cur = nm
	}
	for range 2 * reps {
		t0 := time.Now()
		f, err := os.Open(basePath)
		if err != nil {
			return ph, err
		}
		_, err = registry.ParsePatterns(f)
		f.Close()
		if err != nil {
			return ph, err
		}
		parse = append(parse, ms(time.Since(t0)))
	}
	reg := registry.NewWithMatcher(m, "swap")
	const swaps = 1000
	for range reps {
		t0 := time.Now()
		for range swaps {
			reg.Swap(m, "swap")
		}
		swap = append(swap, float64(time.Since(t0))/float64(time.Microsecond)/swaps)
	}
	ph.compileMS, ph.dfaMS, ph.kernelMS = quantile(compile, .5), quantile(dfaB, .5), quantile(kern, .5)
	ph.deltaMS, ph.parseMS, ph.swapUS = quantile(delta, .5), quantile(parse, .5), quantile(swap, .5)
	return ph, nil
}

// reference computes every payload's (End, Pattern) list on the
// sequential unfiltered stt path: a separate compile with the kernel
// tiers and the filter off.
func reference(pats [][]byte, caseFold bool, payloads [][]byte) ([][]core.Match, error) {
	opts := core.Options{CaseFold: caseFold, Engine: core.EngineOptions{DisableKernel: true, Filter: core.FilterOff}}
	m, err := core.Compile(pats, opts)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	out := make([][]core.Match, len(payloads))
	for i, p := range payloads {
		if out[i], err = m.FindAllUnfiltered(p); err != nil {
			return nil, fmt.Errorf("reference scan: %w", err)
		}
	}
	return out, nil
}

func sameRefs(a, b [][]core.Match) bool {
	return slices.EqualFunc(a, b, func(x, y []core.Match) bool { return slices.Equal(x, y) })
}
