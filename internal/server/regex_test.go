package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
)

// newRegexTestServer serves a compiled regex dictionary over httptest.
func newRegexTestServer(t *testing.T, exprs []string, cfg Config) (*httptest.Server, *registry.Registry, *core.Matcher) {
	t.Helper()
	m, err := core.CompileRegexSearch(exprs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.NewWithMatcher(m, "inline-regex")
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

// TestRegexDictionaryServing drives a regex dictionary through every
// scan endpoint: the responses must flag the dictionary kind, report
// Start=-1 (match lengths vary), carry the expression source as Text,
// and agree with the library-level scan match-for-match.
func TestRegexDictionaryServing(t *testing.T) {
	exprs := []string{"err(or)?", "[0-9]{3}"}
	ts, _, m := newRegexTestServer(t, exprs, Config{})
	payload := []byte("an error code 404 err and 007 too")
	want, err := m.FindAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture matches nothing")
	}

	for _, mode := range []string{"pool", "seq", "adhoc"} {
		sr := postScan(t, ts.URL+"/scan?mode="+mode, payload)
		if !sr.Regex {
			t.Fatalf("mode %s: response not flagged regex", mode)
		}
		if sr.Filter {
			t.Fatalf("mode %s: filter reported live on a regex dictionary", mode)
		}
		if sr.Count != len(want) {
			t.Fatalf("mode %s: count %d, want %d", mode, sr.Count, len(want))
		}
		for i, mj := range sr.Matches {
			if mj.Pattern != want[i].Pattern || mj.End != want[i].End {
				t.Fatalf("mode %s: match %d = %+v, want %+v", mode, i, mj, want[i])
			}
			if mj.Start != -1 {
				t.Fatalf("mode %s: match %d Start = %d, want -1", mode, i, mj.Start)
			}
			if mj.Text != exprs[mj.Pattern] {
				t.Fatalf("mode %s: match %d Text = %q, want expression source %q",
					mode, i, mj.Text, exprs[mj.Pattern])
			}
		}
	}

	// The stream endpoint and the batch alias agree too.
	sr := postScan(t, ts.URL+"/scan/stream", payload)
	if !sr.Regex || sr.Count != len(want) {
		t.Fatalf("stream: regex=%v count=%d, want regex=true count=%d", sr.Regex, sr.Count, len(want))
	}
	sr = postScan(t, ts.URL+"/scan/batch", payload)
	if !sr.Regex || sr.Count != len(want) {
		t.Fatalf("batch: regex=%v count=%d, want regex=true count=%d", sr.Regex, sr.Count, len(want))
	}

	// /stats reports the dictionary kind.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Dictionary.Regex {
		t.Fatal("/stats does not flag the regex dictionary")
	}
}

// TestReloadRegexFormat hot-swaps a literal dictionary for a regex one
// via /reload?format=regex and back via format=dict, checking the
// reload response and subsequent scans track the dictionary kind.
func TestReloadRegexFormat(t *testing.T) {
	ts, _, _ := newTestServer(t, []string{"virus"}, Config{})
	dir := t.TempDir()

	rxPath := filepath.Join(dir, "exprs.txt")
	if err := os.WriteFile(rxPath, []byte("# demo\nerr(or)?\n[0-9]{3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reload?format=regex&path="+rxPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload regex: %d: %s", resp.StatusCode, raw)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Regex || rr.Patterns != 2 {
		t.Fatalf("reload response %+v, want regex with 2 patterns", rr)
	}
	sr := postScan(t, ts.URL+"/scan", []byte("error 404"))
	if !sr.Regex || sr.Count == 0 {
		t.Fatalf("post-swap scan: regex=%v count=%d", sr.Regex, sr.Count)
	}

	// An invalid regex file must fail the reload and keep serving the
	// regex generation.
	badPath := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badPath, []byte("a*\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/reload?format=regex&path="+badPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unbounded regex reload: status %d, want 422", resp.StatusCode)
	}
	sr = postScan(t, ts.URL+"/scan", []byte("error 404"))
	if !sr.Regex || sr.Generation != rr.Generation {
		t.Fatalf("failed reload disturbed serving: %+v", sr)
	}

	// Swap back to a literal dictionary.
	dictPath := filepath.Join(dir, "dict.txt")
	if err := os.WriteFile(dictPath, []byte("error\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/reload?format=dict&path="+dictPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload dict: status %d", resp.StatusCode)
	}
	sr = postScan(t, ts.URL+"/scan", []byte("error 404"))
	if sr.Regex {
		t.Fatal("literal dictionary still flagged regex")
	}
	if len(sr.Matches) != 1 || sr.Matches[0].Start != 0 {
		t.Fatalf("literal matches lost start offsets: %+v", sr.Matches)
	}
}

// TestRegexArtifactServing round-trips a regex matcher through a saved
// artifact and serves the loaded copy — the artifact path end to end.
func TestRegexArtifactServing(t *testing.T) {
	exprs := []string{"GET /[a-z]{1,8}", "[0-9]{3}"}
	m, err := core.CompileRegexSearch(exprs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	artPath := filepath.Join(dir, "regex.cms")
	f, err := os.Create(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := registry.New(artPath, registry.ArtifactLoader(artPath))
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	payload := []byte("GET /index HTTP 200")
	want, err := m.FindAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	sr := postScan(t, ts.URL+"/scan", payload)
	if !sr.Regex {
		t.Fatal("artifact-served dictionary not flagged regex")
	}
	if sr.Count != len(want) {
		t.Fatalf("count %d, want %d", sr.Count, len(want))
	}
	for i := range want {
		got := sr.Matches[i]
		if got.Pattern != want[i].Pattern || got.End != want[i].End || got.Start != -1 {
			t.Fatalf("match %d: %+v, want pattern=%d end=%d start=-1",
				i, got, want[i].Pattern, want[i].End)
		}
	}
}
