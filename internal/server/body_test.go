package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
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

// A body with a declared Content-Length up to bodyPresize is read into
// one buffer of exactly that size; a longer one grows from bodyPresize.
func TestReadBodyPresized(t *testing.T) {
	s := newBodyServer(t, Config{MaxBodyBytes: 4 * bodyPresize})
	body := bytes.Repeat([]byte("a needle "), 1000)
	req := httptest.NewRequest("POST", "/scan", bytes.NewReader(body))
	data, ok := s.readBody(httptest.NewRecorder(), req)
	if !ok || !bytes.Equal(data, body) {
		t.Fatalf("read %d bytes (ok %v), want %d", len(data), ok, len(body))
	}
	if cap(data) != len(body) {
		t.Fatalf("buffer cap %d for a %d-byte body", cap(data), len(body))
	}
	big := bytes.Repeat([]byte("needle "), 3*bodyPresize/7+5)
	req = httptest.NewRequest("POST", "/scan", bytes.NewReader(big))
	if data, ok := s.readBody(httptest.NewRecorder(), req); !ok || !bytes.Equal(data, big) {
		t.Fatalf("read %d bytes (ok %v), want %d", len(data), ok, len(big))
	}
	empty := httptest.NewRequest("POST", "/scan", bytes.NewReader(nil))
	if data, ok := s.readBody(httptest.NewRecorder(), empty); !ok || data == nil || len(data) != 0 {
		t.Fatalf("empty body: %v %v", data, ok)
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
// length, while the read waits.
func TestReadBodyStalledDeclaredLength(t *testing.T) {
	const declared = 64 << 20
	s := newBodyServer(t, Config{MaxBodyBytes: declared})
	sr := &stallReader{data: []byte("a needle"), sent: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest("POST", "/scan", sr)
	req.ContentLength = declared
	runtime.GC()
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan bool)
	go func() {
		_, ok := s.readBody(httptest.NewRecorder(), req)
		done <- ok
	}()
	<-sr.sent
	runtime.ReadMemStats(&during)
	close(sr.release)
	if ok := <-done; ok {
		t.Fatal("a body that broke off short of its length was accepted")
	}
	if grew := during.TotalAlloc - before.TotalAlloc; grew > 4*bodyPresize {
		t.Fatalf("stalled %d-byte declared body allocated %d bytes after 8 arrived", declared, grew)
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
