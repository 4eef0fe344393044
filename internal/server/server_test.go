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
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/workload"
)

// newTestServer serves a compiled dictionary over httptest.
func newTestServer(t *testing.T, patterns []string, cfg Config) (*httptest.Server, *registry.Registry, *core.Matcher) {
	t.Helper()
	m, err := core.CompileStrings(patterns, core.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.NewWithMatcher(m, "inline")
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, reg, m
}

// postRaw posts body to url and returns the 200 reply's bytes.
func postRaw(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

func postScan(t *testing.T, url string, body []byte) ScanResponse {
	t.Helper()
	raw := postRaw(t, url, body)
	var sr ScanResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("bad JSON from %s: %v: %s", url, err, raw)
	}
	return sr
}

// wantMatches converts library matches into the wire shape of /scan:
// Text is the payload slice.
func wantMatches(m *core.Matcher, data []byte, hits []core.Match) []MatchJSON {
	out := make([]MatchJSON, len(hits))
	for i, h := range hits {
		p := m.Pattern(h.Pattern)
		start := h.End - len(p)
		out[i] = MatchJSON{Pattern: h.Pattern, Start: start, End: h.End, Text: string(data[start:h.End])}
	}
	return out
}

// wantStreamMatches is the /scan/stream wire shape: the payload is not
// buffered there, so Text carries the canonical pattern.
func wantStreamMatches(m *core.Matcher, hits []core.Match) []MatchJSON {
	out := make([]MatchJSON, len(hits))
	for i, h := range hits {
		p := m.Pattern(h.Pattern)
		out[i] = MatchJSON{Pattern: h.Pattern, Start: h.End - len(p), End: h.End, Text: string(p)}
	}
	return out
}

func testTraffic(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: n, MatchEvery: 4 << 10, Dictionary: workload.SignatureDictionary(), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sigPatterns() []string {
	var out []string
	for _, p := range workload.SignatureDictionary() {
		out = append(out, string(p))
	}
	return out
}

// Hot-swapping to a dictionary running the sharded tier must surface
// the tier through /reload and /stats, and every scan mode must serve
// it with exactly FindAll's matches.
func TestShardedDictionaryServing(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"placeholder"}, Config{})

	// Build a sharded artifact: a budget far under the dense footprint.
	pats := []string{"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd", "eeeeeeee"}
	m, err := core.CompileStrings(pats, core.Options{
		Engine: core.EngineOptions{MaxTableBytes: 1 << 10, Compressed: core.CompressedOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.EngineName() != "sharded" {
		t.Fatalf("fixture engine = %q, want sharded", m.EngineName())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.cms")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/reload?path="+path+"&format=artifact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Engine != "sharded" || rr.Shards < 2 {
		t.Fatalf("/reload reported %+v, want sharded with >= 2 shards", rr)
	}

	data := []byte(strings.Repeat("xxaaaaaaaXooccccccccoo", 50) + "eeeeeeee")
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture traffic has no matches")
	}
	for _, mode := range []string{"pool", "seq", "adhoc&workers=3"} {
		sr := postScan(t, ts.URL+"/scan?mode="+mode, data)
		if sr.Engine != "sharded" || sr.Count != len(want) {
			t.Fatalf("mode %s: engine %q count %d, want sharded/%d", mode, sr.Engine, sr.Count, len(want))
		}
		if !reflect.DeepEqual(sr.Matches, wantMatches(m, data, want)) {
			t.Fatalf("mode %s: matches diverge", mode)
		}
	}

	// /stats carries the shard shape for dashboards.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dictionary.Engine != "sharded" || st.Dictionary.Shards < 2 || st.Dictionary.MaxShardTableBytes <= 0 {
		t.Fatalf("/stats dictionary = %+v, want sharded shape", st.Dictionary)
	}
}

// Every scan mode (shared pool, sequential, ad-hoc workers, odd chunk
// sizes) must return exactly FindAll's matches.
func TestScanModesEquivalence(t *testing.T) {
	ts, _, m := newTestServer(t, sigPatterns(), Config{})
	data := testTraffic(t, 256<<10, 41)
	ref, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMatches(m, data, ref)
	if len(want) == 0 {
		t.Fatal("test traffic has no hits; test is vacuous")
	}
	for _, query := range []string{
		"", "?mode=pool", "?mode=seq", "?mode=adhoc&workers=3",
		"?mode=pool&chunk=1024", "?mode=adhoc&workers=2&chunk=333",
	} {
		sr := postScan(t, ts.URL+"/scan"+query, data)
		if sr.Bytes != len(data) || sr.Count != len(want) {
			t.Fatalf("%q: bytes=%d count=%d, want %d/%d", query, sr.Bytes, sr.Count, len(data), len(want))
		}
		if !reflect.DeepEqual(sr.Matches, want) {
			t.Fatalf("%q: matches diverged from FindAll", query)
		}
	}
	// count=1 omits the match list but keeps the count.
	sr := postScan(t, ts.URL+"/scan?count=1", data)
	if sr.Count != len(want) || sr.Matches != nil {
		t.Fatalf("count=1: count=%d matches=%v", sr.Count, sr.Matches)
	}
}

// The /scan/stream satellite: a chunked upload cut at adversarial
// split points must equal FindAll over the whole payload.
func TestScanStreamSplitEquivalence(t *testing.T) {
	ts, _, m := newTestServer(t, sigPatterns(), Config{})
	data := testTraffic(t, 300<<10, 43)
	ref, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	want := wantStreamMatches(m, ref)
	if len(want) == 0 {
		t.Fatal("test traffic has no hits; test is vacuous")
	}
	// Prime-sized writes guarantee cuts land mid-pattern somewhere.
	for _, step := range []int{1 << 10, 4093, 65537, len(data)} {
		pr, pw := io.Pipe()
		go func(step int) {
			for off := 0; off < len(data); off += step {
				end := off + step
				if end > len(data) {
					end = len(data)
				}
				if _, err := pw.Write(data[off:end]); err != nil {
					return
				}
			}
			pw.Close()
		}(step)
		resp, err := http.Post(ts.URL+"/scan/stream?chunk=8192", "application/octet-stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %d: %s", step, resp.StatusCode, raw)
		}
		var sr ScanResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Bytes != len(data) {
			t.Fatalf("step %d: consumed %d of %d bytes", step, sr.Bytes, len(data))
		}
		if !reflect.DeepEqual(sr.Matches, want) {
			t.Fatalf("step %d: stream scan diverged from FindAll (%d vs %d)", step, len(sr.Matches), len(want))
		}
	}
}

// The acceptance race test: concurrent /scan traffic while /reload
// alternates two dictionaries. Zero failed requests, and every
// response must be internally consistent — the matches always belong
// to the dictionary named by the response's source/generation, never a
// mix (a torn matcher).
func TestConcurrentScanReloadNoTornMatcher(t *testing.T) {
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
	pathA := mkArtifact("a.cms", []string{"aardvark"})
	pathB := mkArtifact("b.cms", []string{"bumblebee"})

	ts, _, _ := newTestServer(t, []string{"aardvark"}, Config{})
	probe := []byte("an AARDVARK met a bumblebee; the aardvark left")
	// Per dictionary: the exact match set the probe must yield.
	wantByText := map[string]int{"aardvark": 2, "bumblebee": 1}

	var scans, reloads atomic.Uint64
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)

	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(mode string) {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/scan?mode="+mode, "application/octet-stream", bytes.NewReader(probe))
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("scan failed: %d: %s", resp.StatusCode, raw)
					return
				}
				var sr ScanResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					errc <- err
					return
				}
				// Which dictionary does the response claim served it?
				var wantText string
				switch {
				case sr.Source == "inline" || strings.HasSuffix(sr.Source, "a.cms"):
					wantText = "aardvark"
				case strings.HasSuffix(sr.Source, "b.cms"):
					wantText = "bumblebee"
				default:
					errc <- fmt.Errorf("unknown source %q", sr.Source)
					return
				}
				if sr.Count != wantByText[wantText] {
					errc <- fmt.Errorf("torn response: source=%s gen=%d count=%d: %s", sr.Source, sr.Generation, sr.Count, raw)
					return
				}
				for _, hit := range sr.Matches {
					// Text is the payload slice under CaseFold, so compare
					// case-insensitively ("AARDVARK" is the aardvark hit).
					if !strings.EqualFold(hit.Text, wantText) {
						errc <- fmt.Errorf("torn response: source=%s reported %q", sr.Source, hit.Text)
						return
					}
					if got := string(probe[hit.Start:hit.End]); !strings.EqualFold(got, wantText) {
						errc <- fmt.Errorf("offsets off: [%d,%d) = %q", hit.Start, hit.End, got)
						return
					}
				}
				scans.Add(1)
			}
		}([]string{"pool", "seq", "adhoc"}[c%3])
	}

	// Reloader: alternate A and B as fast as the server allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{pathA, pathB}
		for i := 0; ; i++ {
			select {
			case <-stopc:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/reload?path="+paths[i%2], "", nil)
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("reload failed: %d", resp.StatusCode)
				return
			}
			reloads.Add(1)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stopc)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if scans.Load() == 0 || reloads.Load() < 2 {
		t.Fatalf("race window too small: %d scans, %d reloads", scans.Load(), reloads.Load())
	}
	t.Logf("%d scans raced %d reloads with zero failures", scans.Load(), reloads.Load())
}

// TestEngineLadderServing drives one dictionary onto every rung of
// the selection ladder — dense-fit, compressed-fit, shard-only,
// stt-only — crossed with the stride and filter knobs, and checks
// that the served /stats dictionary block agrees exactly with the
// matcher's own Stats()/EngineName view: the serving layer must never
// report a different rung than the engine actually scanning.
func TestEngineLadderServing(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 900, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Budget boundaries straddled by the 900-state dictionary: its
	// dense table fits 8 MiB, only its compressed rows fit 48 KiB,
	// neither fits 48 KiB with compression off (shards do), and
	// DisableKernel forces stt.
	cases := []struct {
		name string
		eng  core.EngineOptions
		want string
	}{
		{"dense-fit", core.EngineOptions{Stride: 1}, "kernel"},
		{"compressed-fit", core.EngineOptions{MaxTableBytes: 48 << 10}, "compressed"},
		{"shard-only", core.EngineOptions{
			MaxTableBytes: 48 << 10, MaxShards: 8, Compressed: core.CompressedOff,
		}, "sharded"},
		{"stt-only", core.EngineOptions{DisableKernel: true}, "stt"},
	}
	for _, tc := range cases {
		for _, stride := range []int{0, 1} {
			for _, fm := range []core.FilterMode{core.FilterAuto, core.FilterOff} {
				eng := tc.eng
				if eng.Stride == 0 {
					eng.Stride = stride
				}
				eng.Filter = fm
				m, err := core.Compile(pats, core.Options{CaseFold: true, Engine: eng})
				if err != nil {
					t.Fatalf("%s stride=%d filter=%v: %v", tc.name, stride, fm, err)
				}
				got := m.Stats().Engine
				// Stride auto may promote a dense-fit dictionary to the
				// stride-2 rung; every other expectation is exact.
				if got != tc.want && !(tc.want == "kernel" && got == "stride2") {
					t.Fatalf("%s stride=%d filter=%v: engine %q, want %q",
						tc.name, stride, fm, got, tc.want)
				}
				if got != m.EngineName() {
					t.Fatalf("%s: Stats().Engine %q != EngineName() %q", tc.name, got, m.EngineName())
				}
				s, err := New(Config{Registry: registry.NewWithMatcher(m, "inline-"+tc.name)})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				st := getStats(t, ts.URL+"/stats")
				ts.Close()
				s.Close()
				if st.Dictionary != m.Stats() {
					t.Fatalf("%s stride=%d filter=%v: /stats dictionary %+v != matcher stats %+v",
						tc.name, stride, fm, st.Dictionary, m.Stats())
				}
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"needle"}, Config{Workers: 3})
	payload := []byte("a needle in a haystack with another needle")
	for i := 0; i < 4; i++ {
		postScan(t, ts.URL+"/scan", payload)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 4 {
		t.Fatalf("requests=%d, want 4", st.Requests)
	}
	if st.BytesScanned != uint64(4*len(payload)) {
		t.Fatalf("bytes=%d, want %d", st.BytesScanned, 4*len(payload))
	}
	if st.MatchesFound != 8 {
		t.Fatalf("matches=%d, want 8", st.MatchesFound)
	}
	if st.PoolWorkers != 3 || st.Generation != 1 || st.Dictionary.Patterns != 1 {
		t.Fatalf("bad stats: %+v", st)
	}
	if st.Dictionary.Engine != "stride2" {
		t.Fatalf("engine=%s, want stride2 (default stride auto)", st.Dictionary.Engine)
	}
	if st.Dictionary.Stride != 2 || st.Dictionary.PairTableBytes <= 0 {
		t.Fatalf("stride-2 stats missing from /stats: %+v", st.Dictionary)
	}
}

// A failed reload must keep the old dictionary serving and report the
// failure in /stats.
func TestReloadFailureKeepsServing(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"needle"}, Config{})
	resp, err := http.Post(ts.URL+"/reload?path=/definitely/not/there.cms", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad reload: %d, want 422", resp.StatusCode)
	}
	sr := postScan(t, ts.URL+"/scan", []byte("needle"))
	if sr.Count != 1 || sr.Generation != 1 {
		t.Fatalf("old dictionary not serving: %+v", sr)
	}
}

func TestRequestValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"needle"}, Config{MaxBodyBytes: 1 << 10})
	check := func(method, path string, body io.Reader, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	check("GET", "/scan", nil, http.StatusMethodNotAllowed)
	check("POST", "/stats", nil, http.StatusMethodNotAllowed)
	check("POST", "/scan?mode=warp", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/scan?workers=-2", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/scan?chunk=banana", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/scan?filter=maybe", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/scan/batch?filter=maybe", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/scan", bytes.NewReader(make([]byte, 2<<10)), http.StatusRequestEntityTooLarge)
	check("POST", "/scan/batch", bytes.NewReader(make([]byte, 2<<10)), http.StatusRequestEntityTooLarge)
	check("POST", "/reload?path=x&format=hologram", nil, http.StatusBadRequest)
}

// New requires a registry.
func TestNewRequiresRegistry(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

// TestFilterKnobEquivalence: the per-request filter=off knob must
// bypass the skip-scan front-end (reported by ScanResponse.Filter) and
// still return exactly the same matches, in every scan mode.
func TestFilterKnobEquivalence(t *testing.T) {
	ts, _, m := newTestServer(t, sigPatterns(), Config{Workers: 2})
	if !m.FilterActive() {
		t.Fatal("signature dictionary did not auto-enable the filter")
	}
	payload := testTraffic(t, 64<<10, 3)
	var ref ScanResponse
	for i, q := range []string{"", "?filter=on", "?filter=auto", "?filter=off",
		"?mode=seq", "?mode=seq&filter=off", "?mode=adhoc&workers=3&filter=off"} {
		sr := postScan(t, ts.URL+"/scan"+q, payload)
		if batch := postScan(t, ts.URL+"/scan/batch"+q, payload); batch.Count != sr.Count ||
			batch.Filter != !strings.Contains(q, "filter=off") {
			t.Fatalf("/scan/batch%s: count=%d filter=%v, want count=%d", q, batch.Count, batch.Filter, sr.Count)
		}
		wantFilter := !strings.Contains(q, "filter=off")
		if sr.Filter != wantFilter {
			t.Fatalf("%q: Filter=%v, want %v", q, sr.Filter, wantFilter)
		}
		if i == 0 {
			ref = sr
			if ref.Count == 0 {
				t.Fatal("traffic has no matches")
			}
			continue
		}
		if sr.Count != ref.Count || !reflect.DeepEqual(sr.Matches, ref.Matches) {
			t.Fatalf("%q: %d matches, want %d (filter knob changed the output)", q, sr.Count, ref.Count)
		}
	}
	// /stats surfaces the front-end and its skip counter.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Dictionary.FilterEnabled || st.Dictionary.FilterWindow == 0 {
		t.Fatalf("stats missing filter fields: %+v", st.Dictionary)
	}
	if st.Dictionary.WindowsSkipped == 0 {
		t.Fatalf("no windows skipped after %d bytes of traffic", st.BytesScanned)
	}
	if st.Dictionary.MinPatternLen == 0 {
		t.Fatalf("MinPatternLen not reported: %+v", st.Dictionary)
	}
}

// TestStatsScanRace is the -race regression test for the Stats
// counters: /scan (advancing WindowsSkipped and the service counters)
// and /stats (reading them) hammered concurrently must be data-race
// free — the counters are atomics, not plain ints.
func TestStatsScanRace(t *testing.T) {
	ts, _, m := newTestServer(t, sigPatterns(), Config{Workers: 2})
	if !m.FilterActive() {
		t.Fatal("filter not active; the race under test needs the skip counter moving")
	}
	payload := testTraffic(t, 32<<10, 5)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			q := "?count=1"
			if i%2 == 1 {
				q = "?count=1&mode=seq"
			}
			for j := 0; j < 8; j++ {
				resp, err := http.Post(ts.URL+"/scan"+q, "application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 16; j++ {
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Error(err)
					return
				}
				var st StatsResponse
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
		}()
	}
	close(start)
	wg.Wait()
	// The skip counter must have moved and be readable consistently.
	if got := m.Stats().WindowsSkipped; got == 0 {
		t.Fatal("no windows skipped across 32 scans")
	}
}

// logPatterns is a small alert dictionary that passes every stride-2
// auto gate (few states, narrow alphabet, L2-resident pair tables), so
// the server under test serves the stride-2 rung by default.
func logPatterns() []string {
	return []string{"PANIC: runtime error", "segfault at address",
		"disk quota exceeded", "certificate expired"}
}

// TestStrideKnobEquivalence: the per-request stride=1 knob must pin
// the request onto the 1-byte loops (reported by ScanResponse.Stride)
// and still return exactly the same matches, in every scan mode and on
// /scan/batch and /scan/stream. A reload keeps reporting the stride,
// and /stats carries the pair-table shape.
func TestStrideKnobEquivalence(t *testing.T) {
	ts, _, m := newTestServer(t, logPatterns(), Config{Workers: 2})
	if got := m.Stats().Engine; got != "stride2" {
		t.Fatalf("fixture engine = %q, want stride2 (auto gates changed?)", got)
	}
	line := "ts=1 level=info msg=ok\nts=2 level=crit msg=\"PANIC: runtime error\"\n" +
		"ts=3 level=warn msg=\"disk quota exceeded on /var\"\nts=4 level=info msg=idle\n"
	payload := []byte(strings.Repeat(line, 200) + "certificate expired")
	var ref ScanResponse
	for i, q := range []string{"", "?stride=auto", "?stride=2", "?stride=1",
		"?mode=seq&stride=1", "?mode=seq&filter=off&stride=1", "?mode=adhoc&workers=3&stride=1"} {
		sr := postScan(t, ts.URL+"/scan"+q, payload)
		wantStride := 2
		if strings.Contains(q, "stride=1") {
			wantStride = 1
		}
		if sr.Stride != wantStride {
			t.Fatalf("%q: Stride=%d, want %d", q, sr.Stride, wantStride)
		}
		if batch := postScan(t, ts.URL+"/scan/batch"+q, payload); batch.Count != sr.Count ||
			batch.Stride != wantStride {
			t.Fatalf("/scan/batch%s: count=%d stride=%d, want count=%d stride=%d",
				q, batch.Count, batch.Stride, sr.Count, wantStride)
		}
		if stream := postScan(t, ts.URL+"/scan/stream"+q, payload); stream.Count != sr.Count ||
			stream.Stride != wantStride {
			t.Fatalf("/scan/stream%s: count=%d stride=%d, want count=%d stride=%d",
				q, stream.Count, stream.Stride, sr.Count, wantStride)
		}
		if i == 0 {
			ref = sr
			if ref.Count == 0 {
				t.Fatal("traffic has no matches")
			}
			continue
		}
		if sr.Count != ref.Count || !reflect.DeepEqual(sr.Matches, ref.Matches) {
			t.Fatalf("%q: %d matches, want %d (stride knob changed the output)", q, sr.Count, ref.Count)
		}
	}
	// A request cannot conjure strides the engine does not have.
	resp, err := http.Post(ts.URL+"/scan?stride=3", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stride=3 got %d, want 400", resp.StatusCode)
	}
	// /stats surfaces the rung and its pair-table footprint.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dictionary.Engine != "stride2" || st.Dictionary.Stride != 2 || st.Dictionary.PairTableBytes <= 0 ||
		st.Dictionary.Slots != 1 {
		t.Fatalf("/stats dictionary = engine %q stride %d pair %d slots %d, want one stride-2 slot",
			st.Dictionary.Engine, st.Dictionary.Stride, st.Dictionary.PairTableBytes, st.Dictionary.Slots)
	}
	// A hot-swap onto the same rung must report the stride in the
	// reload response — dashboards alert on silent rung changes.
	dir := t.TempDir()
	path := filepath.Join(dir, "stride2.cms")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rresp, err := http.Post(ts.URL+"/reload?path="+path+"&format=artifact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	err = json.NewDecoder(rresp.Body).Decode(&rr)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Engine != "stride2" || rr.Stride != 2 {
		t.Fatalf("/reload reported engine %q stride %d, want stride2/2", rr.Engine, rr.Stride)
	}
}
