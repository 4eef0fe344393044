package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
)

func newBodyServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	m, err := core.CompileStrings([]string{"needle"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = registry.NewWithMatcher(m, "inline")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// A fresh body buffer is min(n, bodyPresize) for a declared length n
// (empty for an unknown length); a recycled one is never larger than
// bodyPresize. Bodies past bodyPresize grow from it as they arrive.
func TestReadBodyPresized(t *testing.T) {
	s := newBodyServer(t, Config{MaxBodyBytes: 4 * bodyPresize})
	// Two collections empty bodyBufs, so every buffer below is fresh.
	runtime.GC()
	runtime.GC()
	for _, n := range []int64{-1, 0, 9000, bodyPresize, 3 * bodyPresize} {
		if got, want := cap(*bodyBuffer(n)), int(min(max(n, 0), bodyPresize)); got != want {
			t.Fatalf("fresh buffer for a %d-byte body: cap %d, want %d", n, got, want)
		}
	}
	body := bytes.Repeat([]byte("a needle "), 1000)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest("POST", "/scan", bytes.NewReader(body))
		bp, ok := s.readBody(httptest.NewRecorder(), req)
		if !ok || !bytes.Equal(*bp, body) {
			t.Fatalf("read %d bytes (ok %v), want %d", len(*bp), ok, len(body))
		}
		if cap(*bp) > bodyPresize {
			t.Fatalf("buffer cap %d for a %d-byte body", cap(*bp), len(body))
		}
		putBody(bp)
	}
	big := bytes.Repeat([]byte("needle "), 3*bodyPresize/7+5)
	req := httptest.NewRequest("POST", "/scan", bytes.NewReader(big))
	if bp, ok := s.readBody(httptest.NewRecorder(), req); !ok || !bytes.Equal(*bp, big) {
		t.Fatalf("read %d bytes (ok %v), want %d", len(*bp), ok, len(big))
	}
	empty := httptest.NewRequest("POST", "/scan", bytes.NewReader(nil))
	if bp, ok := s.readBody(httptest.NewRecorder(), empty); !ok || *bp == nil || len(*bp) != 0 {
		t.Fatalf("empty body: %v %v", *bp, ok)
	}
}

// stallReader hands out its bytes, then blocks until released: a
// client that declared a longer body and stopped sending.
type stallReader struct {
	data    []byte
	sent    chan struct{}
	release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		close(r.sent)
		<-r.release
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// A client that declares a body near the cap and stalls after a few
// bytes holds a buffer sized by bodyPresize, not by its declared
// length, while the read waits: on the buffered read (mode=seq) and
// on the default /scan, which scans as it reads.
func TestReadBodyStalledDeclaredLength(t *testing.T) {
	const declared = 64 << 20
	s := newBodyServer(t, Config{MaxBodyBytes: declared})
	for _, path := range []string{"/scan?mode=seq", "/scan"} {
		sr := &stallReader{data: []byte("a needle"), sent: make(chan struct{}), release: make(chan struct{})}
		req := httptest.NewRequest("POST", path, sr)
		req.ContentLength = declared
		runtime.GC()
		var before, during runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, req)
		}()
		<-sr.sent
		runtime.ReadMemStats(&during)
		close(sr.release)
		<-done
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: a body that broke off short of its length answered %d", path, rec.Code)
		}
		if grew := during.TotalAlloc - before.TotalAlloc; grew > 4*bodyPresize {
			t.Fatalf("%s: stalled %d-byte declared body allocated %d bytes after 8 arrived", path, declared, grew)
		}
	}
}

// A /scan client that declares 256 KiB and stalls after 70 KiB has
// handed its first chunk to the pool, but no pool worker waits on its
// body: a concurrent /scan on the same two-worker server completes.
func TestScanStalledBodyLeavesPoolFree(t *testing.T) {
	s := newBodyServer(t, Config{Workers: 2})
	head := bytes.Repeat([]byte("a needle "), 70<<10/9)
	sr := &stallReader{data: head, sent: make(chan struct{}), release: make(chan struct{})}
	stalled := httptest.NewRequest("POST", "/scan", sr)
	stalled.ContentLength = 256 << 10
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, stalled)
	}()
	<-sr.sent
	body := bytes.Repeat([]byte("needle "), 40000)
	other := httptest.NewRecorder()
	s.Handler().ServeHTTP(other, httptest.NewRequest("POST", "/scan?count=1", bytes.NewReader(body)))
	if other.Code != http.StatusOK || !strings.Contains(other.Body.String(), `"count":40000`) {
		t.Fatalf("concurrent /scan beside a stalled body: %d %s", other.Code, other.Body)
	}
	close(sr.release)
	<-done
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stalled body answered %d, want 400", rec.Code)
	}
}

// The answers of a body read: 200 within the cap, 413 over it
// (declared or chunked), 400 when the body breaks off (short of its
// Content-Length, or mid-read), 429 when a chunked body overflows the
// admission byte budget.
func TestReadBodyAnswers(t *testing.T) {
	s := newBodyServer(t, Config{MaxBodyBytes: 1 << 10, MaxQueuedBytes: 2 << 10})
	chunked := func(r io.Reader) io.Reader { return struct{ io.Reader }{r} }
	for _, tc := range []struct {
		name string
		body io.Reader
		n    int64 // declared Content-Length; -1 chunked
		want int
	}{
		{"declared within cap", strings.NewReader("a needle"), 8, http.StatusOK},
		{"chunked within cap", chunked(strings.NewReader("a needle")), -1, http.StatusOK},
		{"declared over cap", bytes.NewReader(make([]byte, 1500)), 1500, http.StatusRequestEntityTooLarge},
		{"chunked over cap", chunked(bytes.NewReader(make([]byte, 1500))), -1, http.StatusRequestEntityTooLarge},
		{"declared, body short", strings.NewReader("a needle"), 100, http.StatusBadRequest},
		{"declared, read fails", io.MultiReader(strings.NewReader("a needle"),
			&failingReader{err: fmt.Errorf("client went away")}), 100, http.StatusBadRequest},
		{"chunked, read fails", chunked(io.MultiReader(strings.NewReader("a needle"),
			&failingReader{err: fmt.Errorf("client went away")})), -1, http.StatusBadRequest},
	} {
		req := httptest.NewRequest("POST", "/scan", tc.body)
		req.ContentLength = tc.n
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	// Under a byte budget below the size cap, a chunked body sheds once
	// its metered reads overflow the budget.
	s = newBodyServer(t, Config{MaxBodyBytes: 8 << 10, MaxQueuedBytes: 1 << 10})
	req := httptest.NewRequest("POST", "/scan", chunked(bytes.NewReader(make([]byte, 3000))))
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("chunked over byte budget: %d (Retry-After %q), want 429",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

// /reload?path= retargets a tenant onto a new source with the tenant's
// own compile options — engine rung, stride, filter — changing only
// case folding, on a full reload and on mode=delta alike.
func TestReloadPathKeepsTenantOptions(t *testing.T) {
	pats := []string{"virus", "worm", "trojan"}
	tenants := map[string]struct {
		opts   core.Options
		engine string
		filter bool
	}{
		"stt":        {core.Options{Engine: core.EngineOptions{DisableKernel: true}}, "stt", true},
		"stride1":    {core.Options{Engine: core.EngineOptions{Stride: 1, Filter: core.FilterOff}}, "kernel", false},
		"compressed": {core.Options{Engine: core.EngineOptions{Compressed: core.CompressedOn}}, "compressed", true},
	}
	ns := registry.NewNamespace()
	for name, tc := range tenants {
		m, err := core.CompileStrings(pats, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.EngineName(); got != tc.engine {
			t.Fatalf("%s compiled onto %q", name, got)
		}
		if err := ns.Set(name, registry.NewWithMatcher(m, "inline-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Namespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	dict := filepath.Join(t.TempDir(), "d2.txt")
	for i, mode := range []string{"", "delta"} {
		writeDictFile(t, dict, append(append([]string{}, pats...), fmt.Sprintf("rootkit%d", i)))
		for name, tc := range tenants {
			q := "/t/" + name + "/reload?format=dict&casefold=1&path=" + dict
			if mode != "" {
				q += "&mode=" + mode
			}
			rr, code := postReload(t, ts.URL+q)
			if code != http.StatusOK {
				t.Fatalf("%s mode %q: reload %d", name, mode, code)
			}
			if rr.Engine != tc.engine || rr.Filter != tc.filter {
				t.Fatalf("%s mode %q: reloaded onto %q (filter %v), want %q (filter %v)",
					name, mode, rr.Engine, rr.Filter, tc.engine, tc.filter)
			}
			e := ns.Get(name).Current()
			want := tc.opts
			want.CaseFold = true
			if got := e.Matcher.Options(); got != want {
				t.Fatalf("%s mode %q: options %+v, want %+v", name, mode, got, want)
			}
			sr := postScan(t, ts.URL+"/t/"+name+"/scan", []byte(fmt.Sprintf("a ROOTKIT%d and a Worm", i)))
			if sr.Count != 2 {
				t.Fatalf("%s mode %q: %d matches after reload, want 2", name, mode, sr.Count)
			}
		}
	}
}

// Body buffers are recycled only once nothing reads them: concurrent
// /scan (double-buffered and sequential) and /scan/batch requests with
// distinct payloads must each get back matches whose Text fields are
// slices of their own payload. Each payload spells its planted words
// in its own letter case, so a buffer handed to another request while
// a reply or a pool worker still reads it shows up as a foreign
// spelling. Run under -race.
func TestRecycledBodiesUnderConcurrency(t *testing.T) {
	ts, _, m := newTestServer(t, []string{"needle", "haystack"}, Config{Workers: 2, ChunkBytes: 4 << 10})
	const clients, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < rounds; i++ {
				payload := casedPayload(rng, 16<<10, c*rounds+i)
				ref, err := m.FindAll(payload)
				if err != nil {
					errs <- err
					return
				}
				want := wantMatches(m, payload, ref)
				path := []string{"/scan", "/scan/batch", "/scan?mode=seq"}[(c+i)%3]
				resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var sr ScanResponse
				if err := json.Unmarshal(raw, &sr); err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d %s: %d %v: %.200s", c, path, resp.StatusCode, err, raw)
					return
				}
				if !reflect.DeepEqual(sr.Matches, want) {
					errs <- fmt.Errorf("client %d round %d %s: %d matches, want %d, or a Text not from this payload",
						c, i, path, len(sr.Matches), len(want))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// casedPayload is n bytes of random lowercase noise with "needle" and
// "haystack" planted every few dozen bytes, spelled in the letter case
// that the bits of mask pick. The payloads share one size, so every
// recycled buffer fits the next request, and the dense matches keep
// each reply reading its buffer for a while.
func casedPayload(rng *rand.Rand, n, mask int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(26))
	}
	for off := rng.Intn(30); off+8 <= n; off += 10 + rng.Intn(30) {
		word := []byte([]string{"needle", "haystack"}[off%2])
		for j := range word {
			if mask>>(j%5)&1 == 1 {
				word[j] -= 'a' - 'A'
			}
		}
		copy(out[off:], word)
	}
	return out
}
