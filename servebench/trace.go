package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries the client's trace id to the handler hook, which
// strips it before the request reaches the server.
const traceHeader = "X-Servebench-Trace"

// Span ids within one trace: the client request is the root, the
// handler its child, and every replayed layer call a child of the
// handler, so all spans of one request share the trace id.
const (
	spanClient = 1 + iota
	spanHandler
	spanReplay // first replay span; later ones count up from here
)

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func spanID(trace uint64, k int) uint64 { return trace<<4 | uint64(k) }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	origin time.Time
	last   atomic.Uint64
	mu     sync.Mutex
	spans  []span
	reqs   map[uint64]*traced
}

// traced is what the replay needs about one request.
type traced struct {
	payload int
	client  time.Duration
	handler time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), reqs: make(map[uint64]*traced)}
}

func (t *tracer) newTrace() uint64 { return t.last.Add(1) }

func (t *tracer) record(trace uint64, k, parent int, name string, start, end time.Time) {
	s := span{
		Trace: trace, ID: spanID(trace, k), Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	}
	if parent > 0 {
		s.Parent = spanID(trace, parent)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) req(trace uint64) *traced {
	r := t.reqs[trace]
	if r == nil {
		r = &traced{payload: -1}
		t.reqs[trace] = r
	}
	return r
}

func (t *tracer) clientDone(trace uint64, payload int, start, end time.Time) {
	t.record(trace, spanClient, 0, "client.request", start, end)
	t.mu.Lock()
	r := t.req(trace)
	r.payload, r.client = payload, end.Sub(start)
	t.mu.Unlock()
}

func (t *tracer) handlerDone(id string, start, end time.Time) {
	trace, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return // not one of ours
	}
	t.record(trace, spanHandler, spanClient, "server.handler", start, end)
	t.mu.Lock()
	t.req(trace).handler = end.Sub(start)
	t.mu.Unlock()
}

// complete returns the trace ids that have both a client and a handler
// span, in order.
func (t *tracer) complete() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []uint64
	for id, r := range t.reqs {
		if r.payload >= 0 && r.handler > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// layerTime summarizes one span name: how many spans, and the median
// duration and self time (duration minus the part covered by child
// spans).
type layerTime struct {
	name      string
	count     int
	durP50MS  float64
	selfP50MS float64
}

func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range t.spans {
		covered := coveredNS(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(s.dur()-time.Duration(covered)))
	}
	var out []layerTime
	for name, d := range durs {
		out = append(out, layerTime{name: name, count: len(d), durP50MS: quantile(d, 0.5), selfP50MS: quantile(selfs[name], 0.5)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// coveredNS is the length of the union of the children's intervals
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write dumps the spans as JSON lines, after a header line of run
// metadata.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
