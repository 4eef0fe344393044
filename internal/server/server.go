// Package server is the serving layer over the matching engines:
// cellmatchd's HTTP surface. It turns the one-shot library calls into
// a long-running service that keeps the compiled kernel tables hot,
// shares one fixed worker pool across all requests (no
// goroutine-per-request fan-out), coalesces small payloads into
// batched kernel passes, serves a namespace of per-tenant dictionaries
// that hot-swap independently through internal/registry without
// dropping in-flight traffic, and sheds load with 429 when a
// configured admission budget is exceeded — the paper's sustained
// line-rate NIDS workload, behind HTTP.
//
// Endpoints (each scan/reload/stats path also exists under
// /t/{tenant}/... for named tenants; the bare paths serve the
// "default" tenant, so single-tenant clients never change):
//
//	POST /scan         body = data; query: mode=pool|seq|adhoc,
//	                   workers (adhoc only), chunk, count, filter,
//	                   stride (1 pins this request to the 1-byte loops)
//	POST /scan/stream  chunked upload fed through ScanReader
//	POST /scan/batch   body = one payload, coalesced across requests
//	                   (all tenants share the collector; payloads are
//	                   grouped per captured dictionary) into one
//	                   kernel pass over the shared pool
//	POST /reload       query: path (new artifact),
//	                   format=artifact|dict|regex,
//	                   mode=full|delta (delta patches the live matcher
//	                   incrementally — dict/regex sources only — and
//	                   skips the swap when the pattern set is unchanged)
//	GET  /stats        dictionary shape + request/byte/match counters
//	GET  /metrics      Prometheus text exposition of every counter
//	GET  /healthz      liveness + current generation per tenant
//
// The default /scan (mode=pool with a declared Content-Length within
// MaxBodyBytes) is double-buffered, the host form of the paper's
// Section 4 / Figure 5 schedule, where one SPU buffer fills by DMA
// while the other is matched: the handler reads the body while the
// pool workers scan each chunk of the parallel grid as soon as its
// bytes have arrived (core.Matcher.ReadFindAll), so the body transfer
// hides under the scan instead of preceding it. Only the handler
// goroutine reads the body; a stalled client holds no pool worker.
// Every buffered endpoint (/scan in each mode, /scan/batch) reads into
// a recycled buffer (bodyBufs) that goes back only after the reply is
// written.
//
// Every request captures its tenant's current registry entry once and
// scans it for the request's whole lifetime (RCU): a concurrent
// /reload never tears a scan, it only changes what later requests see.
// Scan endpoints pass admission control first: when Config.MaxInflight
// or MaxQueuedBytes is set and the budget is exhausted, the request is
// refused with 429 + Retry-After instead of silently degrading every
// admitted request to inline scanning.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/parallel"
	"cellmatch/internal/registry"
)

// Config tunes the serving layer. The zero value (plus a Registry or
// Namespace) is production-ready: GOMAXPROCS pool workers, 64 KiB
// chunks, 64 MiB request cap, 64-payload batches with a 2 ms linger,
// and no admission budget (shedding disabled).
type Config struct {
	// Registry supplies the live matcher of a single-tenant server; it
	// becomes the namespace's "default" slot. Exactly one of Registry
	// and Namespace is required.
	Registry *registry.Registry
	// Namespace supplies the full tenant set: one independent registry
	// per tenant. The "default" slot (if present) serves the
	// un-prefixed paths. Populate it fully before New — the server
	// snapshots the tenant set once.
	Namespace *registry.Namespace
	// Workers sizes the shared scan pool. <=0 means GOMAXPROCS.
	Workers int
	// ChunkBytes is the default per-chunk size for pool scans. <=0
	// means the parallel engine's 64 KiB default.
	ChunkBytes int
	// MaxBodyBytes caps /scan and /scan/batch request bodies. <=0
	// means 64 MiB. /scan/stream is exempt (it streams).
	MaxBodyBytes int64
	// BatchMax is the most payloads coalesced into one batch pass.
	// <=0 means 64.
	BatchMax int
	// BatchLinger is how long the batcher waits for more payloads
	// after the first arrives. <=0 means 2 ms.
	BatchLinger time.Duration
	// MaxInflight caps concurrently admitted scan requests across all
	// tenants; excess requests are shed with 429 + Retry-After. <=0
	// means unlimited (no shedding on request count).
	MaxInflight int
	// MaxQueuedBytes caps the summed body size of admitted in-flight
	// scan requests; excess requests are shed with 429. Bodies with a
	// declared Content-Length reserve it up front; chunked bodies of
	// unknown length are metered as they are read and shed mid-stream
	// when their actual bytes overflow the budget. <=0 means unlimited.
	// Set it at least as large as MaxBodyBytes or maximum-size payloads
	// can never be admitted.
	MaxQueuedBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.BatchLinger <= 0 {
		c.BatchLinger = 2 * time.Millisecond
	}
	return c
}

// tenantState is one served tenant: its registry slot plus its
// request/byte/match counters.
type tenantState struct {
	name     string
	reg      *registry.Registry
	counters counters
}

// Server is the HTTP matching service.
type Server struct {
	cfg         Config
	ns          *registry.Namespace
	tenants     map[string]*tenantState
	tenantNames []string // sorted; fixed at New
	pool        *parallel.Pool
	batch       *batcher
	adm         admission
	started     time.Time
}

// New builds a server over the registry or namespace, starting the
// shared worker pool and the batch collector. Call Close to release
// them.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Registry == nil && cfg.Namespace == nil:
		return nil, fmt.Errorf("server: Config.Registry or Config.Namespace is required")
	case cfg.Registry != nil && cfg.Namespace != nil:
		return nil, fmt.Errorf("server: Config.Registry and Config.Namespace are mutually exclusive")
	}
	c := cfg.withDefaults()
	ns := c.Namespace
	if ns == nil {
		ns = registry.NewNamespace()
		if err := ns.Set(registry.DefaultTenant, c.Registry); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	names := ns.Tenants()
	if len(names) == 0 {
		return nil, fmt.Errorf("server: namespace has no tenants")
	}
	s := &Server{
		cfg:         c,
		ns:          ns,
		tenants:     make(map[string]*tenantState, len(names)),
		tenantNames: names,
		pool:        parallel.NewPool(c.Workers),
		adm: admission{
			maxInflight:    int64(c.MaxInflight),
			maxQueuedBytes: c.MaxQueuedBytes,
		},
		started: time.Now(),
	}
	for _, name := range names {
		s.tenants[name] = &tenantState{name: name, reg: ns.Get(name)}
	}
	s.batch = newBatcher(c.BatchMax, c.BatchLinger, s.scanBatchGroup)
	return s, nil
}

// Close stops the batch collector and the shared pool. Stop accepting
// HTTP traffic first; requests racing Close fail with 503.
func (s *Server) Close() {
	s.batch.close()
	s.pool.Close()
}

// Pool exposes the shared worker pool (benchmarks, diagnostics).
func (s *Server) Pool() *parallel.Pool { return s.pool }

// Handler returns the routed HTTP handler: the bare paths serving the
// default tenant plus the /t/{tenant}/ aliases, /metrics, /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"", "/t/{tenant}"} {
		mux.HandleFunc("POST "+prefix+"/scan", s.admitted(s.handleScan))
		mux.HandleFunc("POST "+prefix+"/scan/stream", s.admitted(s.handleScanStream))
		mux.HandleFunc("POST "+prefix+"/scan/batch", s.admitted(s.handleScanBatch))
		mux.HandleFunc("POST "+prefix+"/reload", s.handleReload)
		mux.HandleFunc("GET "+prefix+"/stats", s.handleStats)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// tenant resolves the request's tenant ({tenant} path segment, or the
// default slot on the bare paths), failing the request with 404 when
// the namespace has no such slot.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) *tenantState {
	name := r.PathValue("tenant")
	if name == "" {
		name = registry.DefaultTenant
	}
	tn := s.tenants[name]
	if tn == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
	}
	return tn
}

// MatchJSON is one reported hit. Start/End are byte offsets into the
// scanned payload ([Start, End) covers the matched text). For literal
// dictionaries served from a buffered payload (/scan, /scan/batch),
// Text is the payload slice [Start, End) itself — under CaseFold that
// is the bytes as they appeared on the wire, not the pattern's
// canonical case. /scan/stream does not retain the payload, so its
// Text carries the canonical pattern instead (offsets remain exact).
// For regex dictionaries a match's length varies per occurrence and
// only the end offset is known, so Start is -1 and Text carries the
// expression source.
type MatchJSON struct {
	Pattern int    `json:"pattern"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Text    string `json:"text"`
}

// ScanResponse is the reply to /scan, /scan/stream, and /scan/batch.
type ScanResponse struct {
	// Tenant is the namespace slot that served this request.
	Tenant string `json:"tenant"`
	// Generation and Source identify the dictionary that served this
	// request — constant for the request even if a reload lands
	// mid-scan.
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	// Engine is the live verifier engine ("stride2", "kernel",
	// "sharded", or "stt"); Filter reports whether the skip-scan
	// front-end ran ahead of it for this request (compiled in and not
	// disabled by the filter=off query knob). Stride is the transition
	// stride that actually served this request: 2 on the stride-2 rung,
	// 1 when the engine is byte-at-a-time or the stride=1 query knob
	// pinned it there, 0 (omitted) on the stt fallback.
	Engine string `json:"engine"`
	Filter bool   `json:"filter,omitempty"`
	Stride int    `json:"stride,omitempty"`
	// Regex reports a regular-expression dictionary: match starts are
	// unknown (-1) and Text fields carry expression sources.
	Regex   bool        `json:"regex,omitempty"`
	Bytes   int         `json:"bytes"`
	Count   int         `json:"count"`
	Matches []MatchJSON `json:"matches,omitempty"`
}

// readBody reads a capped request body into a buffer from bodyBufs,
// answering 413 only for the size cap, 429 when a metered chunked body
// overflowed the admission byte budget mid-read; other read failures
// (client aborts, resets, a body shorter than its Content-Length) are
// 400. A declared length within the cap is read exactly; bodies of
// unknown length read to EOF. Either way the buffer grows only as
// bytes arrive (parallel.ReadDeclared). The caller hands the buffer
// back with putBody once the reply that may slice it is written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	n := r.ContentLength
	if n > s.cfg.MaxBodyBytes {
		n = -1 // read to the cap, which answers 413
	}
	bp := bodyBuffer(n)
	var err error
	*bp, err = parallel.ReadDeclared(s.limitBody(w, r), int(n), *bp, nil)
	if err != nil {
		putBody(bp)
		bodyError(w, err)
		return nil, false
	}
	return bp, true
}

// limitBody caps the request body at MaxBodyBytes.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// bodyError answers a failed body read: 429 when a metered body
// overflowed the admission byte budget, 413 over the size cap, 400
// for every other read failure.
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, errOverBudget):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "body: "+err.Error(), http.StatusTooManyRequests)
	case errors.As(err, &mbe):
		http.Error(w, "body: "+err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "body: "+err.Error(), http.StatusBadRequest)
	}
}

// bodyPresize caps the buffer a body read allocates before any body
// byte has arrived, and the buffers bodyBufs keeps.
const bodyPresize = 1 << 20

// bodyBufs recycles the body buffers of every buffered endpoint (/scan
// in each mode, /scan/batch), so a steady stream of requests reads
// into warm memory instead of allocating and zeroing a fresh buffer
// each. It holds *[]byte of at most bodyPresize capacity.
var bodyBufs sync.Pool

// bodyBuffer returns an empty buffer for a body of declared length n
// (< 0: unknown): a recycled one when it holds min(n, bodyPresize)
// bytes, else a fresh one of exactly that capacity.
func bodyBuffer(n int64) *[]byte {
	want := int(min(max(n, 0), bodyPresize))
	if bp, ok := bodyBufs.Get().(*[]byte); ok && cap(*bp) >= want {
		return bp
	}
	b := make([]byte, 0, want)
	return &b
}

// putBody recycles a body buffer once nothing reads it any more: the
// reply that may slice it is written and no scan still runs over it.
// Buffers grown past bodyPresize are left to the collector.
func putBody(bp *[]byte) {
	if cap(*bp) > bodyPresize {
		return
	}
	*bp = (*bp)[:0]
	bodyBufs.Put(bp)
}

// current captures the tenant's live dictionary entry, or fails the
// request with 503 when none is loaded yet.
func (tn *tenantState) current(w http.ResponseWriter) *registry.Entry {
	e := tn.reg.Current()
	if e == nil {
		http.Error(w, fmt.Sprintf("tenant %q: no dictionary loaded", tn.name), http.StatusServiceUnavailable)
	}
	return e
}

// scanOpts derives per-request parallel options: mode=pool (default)
// scans on the shared pool, mode=seq scans sequentially on the
// compiled engine, mode=adhoc spawns per-request workers (the
// pre-server behavior; `workers` sizes it and is only legal there —
// the pool is fixed-size and seq has no workers, so those modes
// reject the knob with 400 rather than silently ignoring it). `chunk`
// overrides the chunk size in every mode; `filter=off` bypasses the
// skip-scan front-end for this request (output is byte-identical
// either way).
func (s *Server) scanOpts(q map[string][]string) (mode string, opts core.ParallelOptions, err error) {
	get := func(key string) string {
		if v, ok := q[key]; ok && len(v) > 0 {
			return v[0]
		}
		return ""
	}
	mode = get("mode")
	if mode == "" {
		mode = "pool"
	}
	opts.ChunkBytes = s.cfg.ChunkBytes
	if c := get("chunk"); c != "" {
		n, perr := strconv.Atoi(c)
		if perr != nil || n < 0 {
			return "", opts, fmt.Errorf("bad chunk %q", c)
		}
		opts.ChunkBytes = n
	}
	workersSet := false
	if wstr := get("workers"); wstr != "" {
		n, perr := strconv.Atoi(wstr)
		if perr != nil || n < 0 {
			return "", opts, fmt.Errorf("bad workers %q", wstr)
		}
		opts.Workers = n
		workersSet = true
	}
	// "off" bypasses per request; "on"/"auto" mean the matcher's
	// compiled default ("on" cannot conjure a front-end the dictionary
	// declined at compile time).
	fmode, ferr := core.ParseFilterMode(get("filter"))
	if ferr != nil {
		return "", opts, ferr
	}
	opts.DisableFilter = fmode == core.FilterOff
	// stride=1 pins this request onto the 1-byte kernel loops;
	// "2"/"auto" mean the compiled default (like filter=on, a request
	// cannot conjure pair tables the compile declined).
	stride, serr := core.ParseStride(get("stride"))
	if serr != nil {
		return "", opts, serr
	}
	opts.DisableStride2 = stride == 1
	switch mode {
	case "pool":
		opts.Pool = s.pool
	case "seq", "adhoc":
	default:
		return "", opts, fmt.Errorf("bad mode %q (want pool, seq, or adhoc)", mode)
	}
	if workersSet && mode != "adhoc" {
		return "", opts, fmt.Errorf("workers only applies to mode=adhoc (mode=%s runs on %s)",
			mode, map[string]string{"pool": "the fixed shared pool", "seq": "one goroutine"}[mode])
	}
	return mode, opts, nil
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(w, r)
	if tn == nil {
		return
	}
	e := tn.current(w)
	if e == nil {
		return
	}
	mode, opts, err := s.scanOpts(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var (
		bp      *[]byte
		matches []core.Match
	)
	if n := r.ContentLength; mode == "pool" && n >= 0 && n <= s.cfg.MaxBodyBytes {
		// Double-buffered: the pool scans each chunk of the body as soon
		// as its bytes are in while this goroutine reads on.
		bp = bodyBuffer(n)
		*bp, matches, err = e.Matcher.ReadFindAll(s.limitBody(w, r), int(n), *bp, opts)
		if int64(len(*bp)) < n {
			putBody(bp)
			bodyError(w, err)
			return
		}
	} else {
		var ok bool
		if bp, ok = s.readBody(w, r); !ok {
			return
		}
		if mode == "seq" {
			matches, err = e.Matcher.FindAllWith(*bp, opts.ScanOptions)
		} else {
			matches, err = e.Matcher.FindAllParallel(*bp, opts)
		}
	}
	defer putBody(bp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := *bp
	tn.counters.scan(len(data), len(matches))
	s.writeScanResponse(w, r, tn, e, data, len(data), matches, !opts.DisableFilter, opts.DisableStride2)
}

func (s *Server) handleScanStream(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(w, r)
	if tn == nil {
		return
	}
	e := tn.current(w)
	if e == nil {
		return
	}
	_, opts, err := s.scanOpts(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cr := &countingReader{r: r.Body}
	matches, err := e.Matcher.ScanReader(cr, opts)
	if err != nil {
		// A failure reading the client's body (abort, reset, malformed
		// chunking) is the client's fault; a mid-stream admission
		// overflow is load shedding (429, like an up-front refusal);
		// anything else surfaced by the engine is ours — match /scan's
		// 400-vs-500 split instead of blaming the client for internal
		// scan errors.
		status := streamScanStatus(cr)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), status)
		return
	}
	tn.counters.scan(cr.n, len(matches))
	s.writeScanResponse(w, r, tn, e, nil, cr.n, matches, !opts.DisableFilter, opts.DisableStride2)
}

// streamScanStatus classifies a ScanReader failure: 429 when the
// metered body overflowed the admission byte budget, 400 when the
// streamed body itself failed to read, 500 for engine-internal errors.
func streamScanStatus(cr *countingReader) int {
	if errors.Is(cr.err, errOverBudget) {
		return http.StatusTooManyRequests
	}
	if cr.err != nil {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleScanBatch(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(w, r)
	if tn == nil {
		return
	}
	e := tn.current(w)
	if e == nil {
		return
	}
	fmode, err := core.ParseFilterMode(r.URL.Query().Get("filter"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stride, err := core.ParseStride(r.URL.Query().Get("stride"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bp, ok := s.readBody(w, r)
	if !ok {
		return
	}
	data := *bp
	disableFilter := fmode == core.FilterOff && e.Matcher.FilterActive()
	disableStride2 := stride == 1 && e.Matcher.Stride() == 2
	var matches []core.Match
	if disableFilter || disableStride2 {
		// A coalesced pass is shared across requests and cannot honor a
		// per-request bypass (filter=off or stride=1): scan this payload
		// alone on the pool, the same knob semantics as /scan. When the
		// matcher has nothing to bypass the knob is a no-op and
		// coalescing proceeds.
		matches, err = e.Matcher.FindAllParallel(data, core.ParallelOptions{
			ChunkBytes: s.cfg.ChunkBytes, Pool: s.pool,
			ScanOptions: core.ScanOptions{DisableFilter: disableFilter, DisableStride2: disableStride2},
		})
		if err != nil {
			putBody(bp)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		matches, err = s.batch.submit(e, data)
		if err != nil {
			// Shutting down: the collector may still be scanning data,
			// so the buffer is not recycled.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	defer putBody(bp)
	tn.counters.scan(len(data), len(matches))
	s.writeScanResponse(w, r, tn, e, data, len(data), matches, fmode != core.FilterOff, stride == 1)
}

// scanBatchGroup is the batcher's scan callback: one coalesced kernel
// pass over every payload in the group, on the shared pool. Groups are
// keyed by captured registry entry, so payloads from different tenants
// (or different generations of one tenant) never share a pass.
func (s *Server) scanBatchGroup(e *registry.Entry, payloads [][]byte) ([][]core.Match, error) {
	return e.Matcher.FindAllBatch(payloads, core.ParallelOptions{
		ChunkBytes: s.cfg.ChunkBytes,
		Pool:       s.pool,
	})
}

// writeScanResponse renders the match list. data is the scanned
// payload when the endpoint buffered it (/scan, /scan/batch) so
// literal-dictionary Text fields carry the actual matched bytes; nil
// for /scan/stream, which falls back to the canonical pattern.
func (s *Server) writeScanResponse(w http.ResponseWriter, r *http.Request, tn *tenantState, e *registry.Entry, data []byte, n int, matches []core.Match, filtered bool, stride1 bool) {
	regex := e.Matcher.IsRegex()
	stride := e.Matcher.Stride()
	if stride1 && stride == 2 {
		stride = 1
	}
	resp := ScanResponse{
		Tenant:     tn.name,
		Generation: e.Generation,
		Source:     e.Source,
		Engine:     e.Matcher.EngineName(),
		Filter:     filtered && e.Matcher.FilterActive(),
		Stride:     stride,
		Regex:      regex,
		Bytes:      n,
		Count:      len(matches),
	}
	if r.URL.Query().Get("count") != "1" {
		resp.Matches = make([]MatchJSON, len(matches))
		for i, m := range matches {
			p := e.Matcher.Pattern(m.Pattern)
			start := m.End - len(p)
			text := string(p)
			if regex {
				start = -1 // match length varies; only the end is known
			} else if data != nil {
				text = string(data[start:m.End])
			}
			resp.Matches[i] = MatchJSON{
				Pattern: m.Pattern,
				Start:   start,
				End:     m.End,
				Text:    text,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ReloadResponse is the reply to /reload.
type ReloadResponse struct {
	Tenant     string `json:"tenant"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Patterns   int    `json:"patterns"`
	// States counts the states of the automata that scan the new
	// dictionary (core.Matcher.LiveStats); the Figure 3 Cell model is
	// on /stats.
	States int `json:"states"`
	// Engine is the new dictionary's live scan engine ("stride2",
	// "kernel", "compressed", "sharded", or "stt"); Shards its shard
	// count (0 unless sharded); Stride its transition stride (2 on the
	// stride-2 rung, 1 byte-at-a-time, 0 on stt) — the immediate signal
	// that a swapped-in dictionary landed in (or fell out of) the
	// peak-performance tiers. Filter reports whether the skip-scan
	// front-end came up ahead of the engine.
	Engine string `json:"engine"`
	Shards int    `json:"shards,omitempty"`
	Stride int    `json:"stride,omitempty"`
	Filter bool   `json:"filter,omitempty"`
	// Regex reports that the swapped-in dictionary is a set of regular
	// expressions (format=regex, or a regex artifact).
	Regex bool `json:"regex,omitempty"`
	// Outcome classifies what the reload did: "rebuilt" (full cold
	// compile), "patched" (incremental recompile reused compiled units
	// of the previous matcher), or "unchanged" (the source's pattern
	// set is identical to the live one — no swap was published and
	// Generation is the still-current generation).
	Outcome string `json:"outcome"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(w, r)
	if tn == nil {
		return
	}
	q := r.URL.Query()
	mode := q.Get("mode")
	if mode != "" && mode != "full" && mode != "delta" {
		http.Error(w, fmt.Sprintf("bad mode %q (want full or delta)", mode), http.StatusBadRequest)
		return
	}
	var (
		e       *registry.Entry
		outcome registry.DeltaOutcome
		err     error
	)
	if path := q.Get("path"); path != "" {
		// The tenant keeps its compile options (engine rung, stride,
		// filter, groups...) across a retarget; only case folding is
		// the request's to choose.
		var opts core.Options
		if live := tn.reg.Current(); live != nil {
			opts = live.Matcher.Options()
		}
		opts.CaseFold = q.Get("casefold") == "1"
		format := q.Get("format")
		if mode == "delta" {
			// Delta retarget: the loader sees the live matcher and
			// patches it. Artifacts are pre-compiled — there is nothing
			// to patch against — so only source formats qualify.
			var load registry.DeltaLoader
			switch format {
			case "dict":
				load = registry.DictDeltaLoader(path, opts)
			case "regex":
				load = registry.RegexDeltaLoader(path, opts)
			case "", "artifact":
				http.Error(w, "mode=delta requires format=dict or format=regex (artifacts are pre-compiled)", http.StatusUnprocessableEntity)
				return
			default:
				http.Error(w, fmt.Sprintf("bad format %q (want dict or regex)", format), http.StatusBadRequest)
				return
			}
			e, outcome, err = tn.reg.RetargetDelta(path, load)
		} else {
			var load registry.Loader
			switch format {
			case "", "artifact":
				load = registry.ArtifactLoader(path)
			case "dict":
				load = registry.DictLoader(path, opts)
			case "regex":
				load = registry.RegexLoader(path, opts)
			default:
				http.Error(w, fmt.Sprintf("bad format %q (want artifact, dict, or regex)", format), http.StatusBadRequest)
				return
			}
			e, err = tn.reg.Retarget(path, load)
		}
	} else if mode == "full" {
		// Forced cold rebuild: bypass the installed loader's patching
		// and unchanged short-circuit, so a reorder-only rewrite still
		// publishes a new generation with pattern ids in file order.
		e, err = tn.reg.ReloadFull()
		outcome = registry.Rebuilt
	} else {
		// No mode (or the default): re-run the installed loader. A
		// daemon started with a delta-aware loader patches or
		// short-circuits as warranted; the outcome reports what
		// actually happened.
		e, outcome, err = tn.reg.ReloadOutcome()
	}
	if err != nil {
		// The previous dictionary is still live; the reload just failed.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	st := e.Matcher.LiveStats()
	writeJSON(w, http.StatusOK, ReloadResponse{
		Tenant:     tn.name,
		Generation: e.Generation,
		Source:     e.Source,
		Patterns:   st.Patterns,
		States:     st.States,
		Engine:     st.Engine,
		Shards:     st.Shards,
		Stride:     st.Stride,
		Filter:     st.FilterEnabled,
		Regex:      st.Regex,
		Outcome:    outcome.String(),
	})
}

// StatsResponse is the reply to /stats: the resolved tenant's
// dictionary and counters plus the service-wide pool, batch, and
// admission state.
type StatsResponse struct {
	Tenant        string   `json:"tenant"`
	Tenants       []string `json:"tenants"`
	Generation    uint64   `json:"generation"`
	Source        string   `json:"source"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	PoolWorkers   int      `json:"pool_workers"`
	Requests      uint64   `json:"requests"`
	BytesScanned  uint64   `json:"bytes_scanned"`
	MatchesFound  uint64   `json:"matches_found"`
	Batches       uint64   `json:"batches"`
	BatchPayloads uint64   `json:"batch_payloads"`
	ReloadsOK     uint64   `json:"reloads_ok"`
	ReloadsFailed uint64   `json:"reloads_failed"`
	// ReloadsPatched counts reloads satisfied by incremental
	// recompilation (compiled units of the previous matcher reused);
	// ReloadsUnchanged counts reloads short-circuited because the
	// source's pattern set was identical to the live dictionary's (no
	// swap published, generation unchanged).
	ReloadsPatched   uint64     `json:"reloads_patched"`
	ReloadsUnchanged uint64     `json:"reloads_unchanged"`
	Inflight         int64      `json:"inflight_requests"`
	InflightPeak     int64      `json:"inflight_requests_peak"`
	Shed             uint64     `json:"requests_shed"`
	Dictionary       core.Stats `json:"dictionary"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(w, r)
	if tn == nil {
		return
	}
	e := tn.current(w)
	if e == nil {
		return
	}
	ok, failed := tn.reg.Reloads()
	patched, unchanged := tn.reg.DeltaReloads()
	batches, payloads := s.batch.stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Tenant:           tn.name,
		Tenants:          s.tenantNames,
		Generation:       e.Generation,
		Source:           e.Source,
		UptimeSeconds:    time.Since(s.started).Seconds(),
		PoolWorkers:      s.pool.Workers(),
		Requests:         tn.counters.requests.Load(),
		BytesScanned:     tn.counters.bytes.Load(),
		MatchesFound:     tn.counters.matches.Load(),
		Batches:          batches,
		BatchPayloads:    payloads,
		ReloadsOK:        ok,
		ReloadsFailed:    failed,
		ReloadsPatched:   patched,
		ReloadsUnchanged: unchanged,
		Inflight:         s.adm.inflight.Load(),
		InflightPeak:     s.adm.peak.Load(),
		Shed:             s.adm.shed.Load(),
		Dictionary:       e.Matcher.Stats(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	generations := make(map[string]uint64, len(s.tenantNames))
	loaded := 0
	for _, name := range s.tenantNames {
		var gen uint64
		if e := s.tenants[name].reg.Current(); e != nil {
			gen = e.Generation
			loaded++
		}
		generations[name] = gen
	}
	if loaded == 0 {
		http.Error(w, "no dictionary loaded", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"generation":  generations[registry.DefaultTenant],
		"generations": generations,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone: nothing useful to do
}

// countingReader tracks bytes consumed from a streamed body, and
// remembers whether the stream itself ever failed (the 400-vs-500
// signal for /scan/stream).
type countingReader struct {
	r   io.Reader
	n   int
	err error // first non-EOF read error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}
