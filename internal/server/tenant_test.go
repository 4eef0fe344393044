package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
)

// newTenantServer serves a namespace of tenant -> patterns.
func newTenantServer(t *testing.T, tenants map[string][]string, cfg Config) (*httptest.Server, *registry.Namespace) {
	t.Helper()
	ns := registry.NewNamespace()
	for name, pats := range tenants {
		m, err := core.CompileStrings(pats, core.Options{CaseFold: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Set(name, registry.NewWithMatcher(m, "inline-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Namespace = ns
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, ns
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMultiTenantRouting: tenant paths resolve their own dictionaries,
// the bare paths stay on the default slot, unknown tenants 404, and
// per-tenant counters stay separate.
func TestMultiTenantRouting(t *testing.T) {
	ts, _ := newTenantServer(t, map[string][]string{
		registry.DefaultTenant: {"aardvark"},
		"acme":                 {"bumblebee"},
	}, Config{})

	probe := []byte("an aardvark met a bumblebee")

	sr := postScan(t, ts.URL+"/scan", probe)
	if sr.Tenant != registry.DefaultTenant || sr.Count != 1 || sr.Matches[0].Text != "aardvark" {
		t.Fatalf("default scan: %+v", sr)
	}
	sr = postScan(t, ts.URL+"/t/acme/scan", probe)
	if sr.Tenant != "acme" || sr.Count != 1 || sr.Matches[0].Text != "bumblebee" {
		t.Fatalf("tenant scan: %+v", sr)
	}
	// The tenant aliases of stream and batch resolve the same slot.
	sr = postScan(t, ts.URL+"/t/acme/scan/stream", probe)
	if sr.Tenant != "acme" || sr.Count != 1 {
		t.Fatalf("tenant stream: %+v", sr)
	}
	sr = postScan(t, ts.URL+"/t/acme/scan/batch", probe)
	if sr.Tenant != "acme" || sr.Count != 1 {
		t.Fatalf("tenant batch: %+v", sr)
	}

	for _, path := range []string{"/t/ghost/scan", "/t/ghost/scan/stream", "/t/ghost/scan/batch"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(probe))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}

	// Counters are per tenant: default saw 1 request, acme saw 3.
	if st := getStats(t, ts.URL+"/stats"); st.Tenant != registry.DefaultTenant || st.Requests != 1 {
		t.Fatalf("default stats: %+v", st)
	}
	st := getStats(t, ts.URL+"/t/acme/stats")
	if st.Tenant != "acme" || st.Requests != 3 {
		t.Fatalf("acme stats: %+v", st)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("tenant roster: %v", st.Tenants)
	}

	// /healthz reports every tenant's generation.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Generations map[string]uint64 `json:"generations"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Generations[registry.DefaultTenant] != 1 || hz.Generations["acme"] != 1 {
		t.Fatalf("healthz generations: %v", hz.Generations)
	}
}

// /scan/batch is a route onto /scan: for the same body and query it
// answers byte for byte what /scan does, bare and under a tenant.
func TestScanBatchAliasIdentical(t *testing.T) {
	ts, _ := newTenantServer(t, map[string][]string{
		registry.DefaultTenant: {"aardvark", "ardv"},
		"acme":                 {"bumblebee", "bee"},
	}, Config{})
	probe := []byte(strings.Repeat("an AARDVARK met a bumblebee; ", 40))
	for _, prefix := range []string{"", "/t/acme"} {
		for _, q := range []string{"", "?count=1", "?mode=seq", "?mode=adhoc&workers=2&chunk=64", "?filter=off&stride=1"} {
			want := postRaw(t, ts.URL+prefix+"/scan"+q, probe)
			if got := postRaw(t, ts.URL+prefix+"/scan/batch"+q, probe); !bytes.Equal(got, want) {
				t.Fatalf("%s/scan/batch%s = %s, want the /scan reply %s", prefix, q, got, want)
			}
		}
	}
}

// The tentpole acceptance test: two tenants hot-swap independently
// while both serve concurrent /scan traffic, with zero failed requests
// and zero torn responses — every response's matches belong to the
// dictionary its own tenant+generation names, and a reload of one
// tenant never moves the other's generation.
func TestMultiTenantConcurrentHotSwapNoTorn(t *testing.T) {
	dir := t.TempDir()
	mkArtifact := func(name string, pats []string) string {
		m, err := core.CompileStrings(pats, core.Options{CaseFold: true})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	// Tenant "red" alternates aardvark/bumblebee dictionaries; tenant
	// "blue" alternates cormorant/dormouse. The probe contains all four
	// words once, so the correct count is always 1 and the matched text
	// names the dictionary that really served the scan.
	artifacts := map[string][2]string{
		"red":  {mkArtifact("red-a.cms", []string{"aardvark"}), mkArtifact("red-b.cms", []string{"bumblebee"})},
		"blue": {mkArtifact("blue-a.cms", []string{"cormorant"}), mkArtifact("blue-b.cms", []string{"dormouse"})},
	}
	wordOf := map[string]string{
		"red-a.cms": "aardvark", "red-b.cms": "bumblebee",
		"blue-a.cms": "cormorant", "blue-b.cms": "dormouse",
	}
	ts, _ := newTenantServer(t, map[string][]string{
		"red": {"aardvark"}, "blue": {"cormorant"},
	}, Config{})
	probe := []byte("aardvark bumblebee cormorant dormouse")

	stopc := make(chan struct{})
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	var scans, reloads atomic.Uint64

	for i := 0; i < 6; i++ {
		tenant := []string{"red", "blue"}[i%2]
		mode := []string{"pool", "seq", "adhoc"}[i%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/t/"+tenant+"/scan?mode="+mode,
					"application/octet-stream", bytes.NewReader(probe))
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("tenant %s scan: %d: %s", tenant, resp.StatusCode, raw)
					return
				}
				var sr ScanResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					errc <- err
					return
				}
				if sr.Tenant != tenant {
					errc <- fmt.Errorf("asked tenant %s, served by %s", tenant, sr.Tenant)
					return
				}
				// Which word must this response's dictionary match?
				want := ""
				if sr.Source == "inline-"+tenant {
					want = map[string]string{"red": "aardvark", "blue": "cormorant"}[tenant]
				} else {
					want = wordOf[filepath.Base(sr.Source)]
				}
				if want == "" {
					errc <- fmt.Errorf("tenant %s: unknown source %q", tenant, sr.Source)
					return
				}
				if sr.Count != 1 || len(sr.Matches) != 1 || sr.Matches[0].Text != want {
					errc <- fmt.Errorf("torn response: tenant=%s source=%s gen=%d: %s",
						tenant, sr.Source, sr.Generation, raw)
					return
				}
				scans.Add(1)
			}
		}()
	}

	// One reloader per tenant, alternating that tenant's two artifacts.
	for tenant, paths := range artifacts {
		wg.Add(1)
		go func(tenant string, paths [2]string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopc:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/t/"+tenant+"/reload?path="+paths[i%2], "", nil)
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("tenant %s reload: %d: %s", tenant, resp.StatusCode, raw)
					return
				}
				var rr ReloadResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					errc <- err
					return
				}
				if rr.Tenant != tenant {
					errc <- fmt.Errorf("reload of %s landed on %s", tenant, rr.Tenant)
					return
				}
				reloads.Add(1)
			}
		}(tenant, paths)
	}

	time.Sleep(500 * time.Millisecond)
	close(stopc)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if scans.Load() == 0 || reloads.Load() < 4 {
		t.Fatalf("race window too small: %d scans, %d reloads", scans.Load(), reloads.Load())
	}

	// Independence: each tenant's generation advanced by its own
	// reloads only (initial swap = gen 1, so gen-1 reloads each), and
	// the two sequences are unrelated.
	stRed := getStats(t, ts.URL+"/t/red/stats")
	stBlue := getStats(t, ts.URL+"/t/blue/stats")
	if stRed.Generation+stBlue.Generation-2 != uint64(reloads.Load()) {
		t.Fatalf("generations %d+%d don't account for %d reloads",
			stRed.Generation, stBlue.Generation, reloads.Load())
	}
	t.Logf("%d scans raced %d reloads across 2 tenants with zero torn responses", scans.Load(), reloads.Load())
}

// TestOverloadShedding: with MaxInflight saturated by held-open stream
// uploads, additional scans are refused with 429 + Retry-After while
// the admitted requests complete cleanly, and the peak queue depth
// never exceeds the budget.
func TestOverloadShedding(t *testing.T) {
	const budget = 2
	ts, _ := newTenantServer(t, map[string][]string{registry.DefaultTenant: {"needle"}},
		Config{MaxInflight: budget})

	// Saturate the budget with stream requests held open mid-body.
	type held struct {
		pw   *io.PipeWriter
		done chan ScanResponse
	}
	var holds []held
	for i := 0; i < budget; i++ {
		pr, pw := io.Pipe()
		done := make(chan ScanResponse, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/scan/stream", "application/octet-stream", pr)
			if err != nil {
				t.Error(err)
				close(done)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("held stream: %d: %s", resp.StatusCode, raw)
				close(done)
				return
			}
			var sr ScanResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Error(err)
				close(done)
				return
			}
			done <- sr
		}()
		if _, err := pw.Write([]byte("a needle in ")); err != nil {
			t.Fatal(err)
		}
		holds = append(holds, held{pw, done})
	}
	// Wait until both are admitted.
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL+"/stats").Inflight != budget {
		if time.Now().After(deadline) {
			t.Fatal("held streams never saturated the budget")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every additional scan-path request must shed with 429.
	shed := 0
	for i := 0; i < 5; i++ {
		for _, path := range []string{"/scan", "/scan/batch", "/scan/stream"} {
			resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader("needle"))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("%s under overload: %d, want 429", path, resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed++
		}
	}
	// Control-plane endpoints stay reachable under overload.
	if st := getStats(t, ts.URL+"/stats"); st.Shed != uint64(shed) || st.Inflight != budget {
		t.Fatalf("stats under overload: shed=%d inflight=%d, want %d/%d", st.Shed, st.Inflight, shed, budget)
	}

	// Release the held streams: the admitted requests must complete
	// with correct results (zero failed 200-responses).
	for _, h := range holds {
		if _, err := h.pw.Write([]byte("a haystack with a needle")); err != nil {
			t.Fatal(err)
		}
		h.pw.Close()
	}
	for _, h := range holds {
		sr, ok := <-h.done
		if !ok {
			t.Fatal("held stream failed")
		}
		if sr.Count != 2 {
			t.Fatalf("held stream count=%d, want 2", sr.Count)
		}
	}

	// Bounded queue depth: the high-water mark never exceeded the
	// budget, and with slots free the path serves again.
	st := getStats(t, ts.URL+"/stats")
	if st.InflightPeak > budget {
		t.Fatalf("inflight peak %d exceeded budget %d", st.InflightPeak, budget)
	}
	if sr := postScan(t, ts.URL+"/scan", []byte("a needle")); sr.Count != 1 {
		t.Fatalf("post-overload scan: %+v", sr)
	}
}

// TestQueuedBytesShedding: the byte budget sheds oversized admitted
// load independently of the request count.
func TestQueuedBytesShedding(t *testing.T) {
	ts, _ := newTenantServer(t, map[string][]string{registry.DefaultTenant: {"needle"}},
		Config{MaxQueuedBytes: 1 << 10})
	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream", bytes.NewReader(make([]byte, 4<<10)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget body: %d, want 429", resp.StatusCode)
	}
	if sr := postScan(t, ts.URL+"/scan", []byte("small needle")); sr.Count != 1 {
		t.Fatalf("under-budget scan: %+v", sr)
	}
}

// TestChunkedStreamMeteredAdmission: a chunked upload declares no
// Content-Length, so its up-front admission reservation is zero — the
// regression pinned here is that its actual bytes are still metered
// against MaxQueuedBytes as they are read, shedding mid-stream with
// 429 + Retry-After instead of admitting an unbounded body, with the
// metered reservation fully drained afterward. In-budget chunked
// streams still serve, and the buffered /scan path meters chunked
// bodies the same way.
func TestChunkedStreamMeteredAdmission(t *testing.T) {
	m, err := core.CompileStrings([]string{"needle"}, core.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Registry:       registry.NewWithMatcher(m, "inline"),
		MaxQueuedBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Hiding the reader's concrete type keeps the client from sniffing
	// a Content-Length, so the request goes out Transfer-Encoding:
	// chunked and the server sees ContentLength -1.
	chunked := func(path string, body []byte) *http.Response {
		req, err := http.NewRequest("POST", ts.URL+path, struct{ io.Reader }{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// 8 KiB of chunked body against a 1 KiB budget must shed once the
	// metered reads overflow.
	resp := chunked("/scan/stream", make([]byte, 8<<10))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget chunked stream: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if q := s.adm.queuedBytes.Load(); q != 0 {
		t.Fatalf("queued-bytes gauge leaked %d after mid-stream shed", q)
	}
	if s.adm.shed.Load() == 0 {
		t.Fatal("mid-stream shed not counted")
	}

	// An in-budget chunked stream serves normally and drains its
	// metered reservation.
	body := append(make([]byte, 256), "a needle in the haystack"...)
	resp = chunked("/scan/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget chunked stream: %d, want 200", resp.StatusCode)
	}
	if q := s.adm.queuedBytes.Load(); q != 0 {
		t.Fatalf("queued-bytes gauge leaked %d after in-budget stream", q)
	}

	// The buffered /scan path reads the same metered body.
	resp = chunked("/scan", make([]byte, 8<<10))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget chunked /scan: %d, want 429", resp.StatusCode)
	}
	if q := s.adm.queuedBytes.Load(); q != 0 {
		t.Fatalf("queued-bytes gauge leaked %d after /scan shed", q)
	}
}

// TestMetricsExposition: /metrics serves Prometheus text with the
// service counters, per-tenant labels, and admission gauges. The
// /scan/batch alias counts as one more /scan request.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTenantServer(t, map[string][]string{
		registry.DefaultTenant: {"aardvark"},
		"acme":                 {"bumblebee"},
	}, Config{MaxInflight: 8})
	postScan(t, ts.URL+"/scan", []byte("one aardvark"))
	postScan(t, ts.URL+"/t/acme/scan", []byte("two bumblebee bumblebee"))
	postScan(t, ts.URL+"/t/acme/scan/batch", []byte("bumblebee"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE cellmatch_requests_total counter",
		`cellmatch_requests_total{tenant="default"} 1`,
		`cellmatch_requests_total{tenant="acme"} 2`,
		`cellmatch_matches_total{tenant="acme"} 3`,
		`cellmatch_dictionary_generation{tenant="default"} 1`,
		`cellmatch_reloads_total{tenant="acme",result="ok"}`,
		"# TYPE cellmatch_inflight_requests gauge",
		"cellmatch_inflight_requests 0",
		"cellmatch_requests_shed_total 0",
		`cellmatch_bytes_scanned_total{tenant="acme"} 32`,
		"cellmatch_pool_workers",
		"cellmatch_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "cellmatch_batch") {
		t.Fatalf("/metrics still exports batch counters:\n%s", body)
	}
}

// Satellite regression: the workers knob is only meaningful with
// mode=adhoc; pool and seq must reject it with 400 instead of parsing
// and silently ignoring it.
func TestWorkersKnobRejectedOutsideAdhoc(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"needle"}, Config{})
	for _, q := range []string{
		"?workers=4",           // default mode is pool
		"?mode=pool&workers=4", //
		"?mode=seq&workers=1",  //
	} {
		for _, path := range []string{"/scan", "/scan/stream"} {
			resp, err := http.Post(ts.URL+path+q, "application/octet-stream", strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s%s: %d, want 400", path, q, resp.StatusCode)
			}
			if !strings.Contains(string(raw), "workers") {
				t.Fatalf("%s%s error does not name the knob: %s", path, q, raw)
			}
		}
	}
	// adhoc still honors it.
	if sr := postScan(t, ts.URL+"/scan?mode=adhoc&workers=2", []byte("a needle")); sr.Count != 1 {
		t.Fatalf("adhoc workers scan: %+v", sr)
	}
}

// Satellite regression: /scan/stream maps body-read failures to 400
// and engine-internal errors to 500, matching /scan's split.
func TestStreamErrorStatusSplit(t *testing.T) {
	// Classification: a recorded body-read failure is the client's
	// fault; an engine failure without one is ours.
	cr := &countingReader{err: fmt.Errorf("connection reset")}
	if got := streamScanStatus(cr); got != http.StatusBadRequest {
		t.Fatalf("body-read failure classified %d, want 400", got)
	}
	if got := streamScanStatus(&countingReader{}); got != http.StatusInternalServerError {
		t.Fatalf("internal scan failure classified %d, want 500", got)
	}

	// End to end: a body that fails mid-read must answer 400.
	m, err := core.CompileStrings([]string{"needle"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: registry.NewWithMatcher(m, "inline")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := httptest.NewRequest("POST", "/scan/stream", io.MultiReader(
		strings.NewReader(strings.Repeat("needle in a haystack ", 100)),
		&failingReader{err: fmt.Errorf("client went away")},
	))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mid-body failure: %d, want 400: %s", rec.Code, rec.Body)
	}
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// Satellite regression: under CaseFold, /scan's Text must be the
// payload slice (the bytes as they appeared on the wire), equal to
// payload[Start:End], not the canonical pattern.
func TestCaseFoldTextIsPayloadSlice(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"needle"}, Config{}) // CaseFold: true
	payload := []byte("a NeEdLe and a NEEDLE")
	for _, path := range []string{"/scan", "/scan?mode=seq", "/scan/batch"} {
		sr := postScan(t, ts.URL+path, payload)
		if sr.Count != 2 {
			t.Fatalf("%s: count=%d, want 2", path, sr.Count)
		}
		for _, hit := range sr.Matches {
			want := string(payload[hit.Start:hit.End])
			if hit.Text != want {
				t.Fatalf("%s: Text=%q, want payload slice %q", path, hit.Text, want)
			}
		}
		if sr.Matches[0].Text != "NeEdLe" || sr.Matches[1].Text != "NEEDLE" {
			t.Fatalf("%s: wire-case lost: %+v", path, sr.Matches)
		}
	}
	// /scan/stream does not buffer the payload: Text falls back to the
	// canonical pattern, offsets stay exact.
	sr := postScan(t, ts.URL+"/scan/stream", payload)
	if sr.Count != 2 || sr.Matches[0].Text != "needle" {
		t.Fatalf("stream fallback: %+v", sr.Matches)
	}
	if got := string(payload[sr.Matches[0].Start:sr.Matches[0].End]); got != "NeEdLe" {
		t.Fatalf("stream offsets: %q", got)
	}
}
