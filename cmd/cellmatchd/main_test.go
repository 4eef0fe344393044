package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer for the daemon's log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon on a random port and returns its base
// URL plus a shutdown func that waits for a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, *syncBuffer, func()) {
	t.Helper()
	dir := t.TempDir()
	dictPath := filepath.Join(dir, "dict.txt")
	if err := os.WriteFile(dictPath, []byte("virus\nworm\ntrojan\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-dict", dictPath, "-casefold"}, extraArgs...)
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, &out, args) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop := func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon never shut down")
		}
	}
	return "http://" + addr, &out, stop
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	base, out, stop := startDaemon(t)
	defer stop()

	resp, err := http.Post(base+"/scan", "application/octet-stream",
		strings.NewReader("a VIRUS and a worm walk into a bar"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scan: %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"count":2`, `"VIRUS"`, `"worm"`, `"generation":1`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/scan response missing %s: %s", want, body)
		}
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	if !strings.Contains(out.String(), "loaded") {
		t.Fatalf("startup log missing load line:\n%s", out.String())
	}
}

func TestDaemonWatchHotSwap(t *testing.T) {
	// Recreate the dict file the daemon watches.
	base, out, stop := startDaemon(t, "-watch", "-watch-interval", "10ms")
	defer stop()

	// The daemon logged which dict it loaded; rewrite that file.
	m := regexp.MustCompile(`loaded (\S+):`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no load line:\n%s", out.String())
	}
	dictPath := m[1]

	probe := func() string {
		resp, err := http.Post(base+"/scan", "application/octet-stream",
			strings.NewReader("ZEBRA crossing"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if got := probe(); !strings.Contains(got, `"count":0`) {
		t.Fatalf("zebra matched before swap: %s", got)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(probe(), `"count":1`) {
		if time.Now().After(deadline) {
			t.Fatalf("hot swap never served: log\n%s", out.String())
		}
		if err := os.WriteFile(dictPath, []byte(fmt.Sprintf("zebra\n# rev %d\n", time.Now().UnixNano())), 0o644); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "hot-swapped") {
		t.Fatalf("no hot-swap log line:\n%s", out.String())
	}
}

// A client that never finishes its headers must not hold a connection
// forever: the daemon's server bounds header reads at 10 s.
func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out syncBuffer
	if err := run(ctx, &out, nil); err == nil {
		t.Fatal("no dictionary flags accepted")
	}
	if err := run(ctx, &out, []string{"-dict", "x", "-artifact", "y"}); err == nil {
		t.Fatal("conflicting dictionary flags accepted")
	}
	if err := run(ctx, &out, []string{"-dict", "x", "-regex", "y"}); err == nil {
		t.Fatal("conflicting -dict/-regex accepted")
	}
	if err := run(ctx, &out, []string{"-dict", "/definitely/not/there"}); err == nil {
		t.Fatal("missing dict file accepted")
	}
	if err := run(ctx, &out, []string{"-regex", "/definitely/not/there"}); err == nil {
		t.Fatal("missing regex file accepted")
	}
}

// TestDaemonServesRegexDictionary boots the daemon on a regular
// expression file and checks the wire responses carry the regex
// dictionary contract: regex flag set, start=-1, expression sources.
func TestDaemonServesRegexDictionary(t *testing.T) {
	dir := t.TempDir()
	rxPath := filepath.Join(dir, "exprs.txt")
	if err := os.WriteFile(rxPath, []byte("# regex dictionary\nerr(or)?\n[0-9]{3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-listen", "127.0.0.1:0", "-regex", rxPath}
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, &out, args) }()
	defer func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon never shut down")
		}
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post("http://"+addr+"/scan", "application/octet-stream",
		strings.NewReader("an error code 404"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scan: %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"regex":true`, `"start":-1`, `"err(or)?"`, `"[0-9]{3}"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/scan response missing %s: %s", want, body)
		}
	}
	if !strings.Contains(out.String(), "loaded "+rxPath) {
		t.Fatalf("startup log missing regex load line:\n%s", out.String())
	}
}

func TestDaemonTenantFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out syncBuffer
	for _, args := range [][]string{
		{"-tenant", "acme"},                          // no =
		{"-tenant", "acme=dict"},                     // no :path
		{"-tenant", "acme=tarball:x"},                // bad format
		{"-tenant", "bad name=dict:x"},               // bad name
		{"-tenant", "acme=dict:/definitely/missing"}, // missing file fails fast
		{"-dict", "x", "-tenant", "default=dict:y"},  // default collides with base
	} {
		if err := run(ctx, &out, append([]string{"-listen", "127.0.0.1:0"}, args...)); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestDaemonMultiTenant boots the daemon with a base dictionary plus
// one -tenant slot and checks tenant routing, /metrics, and the
// admission budget end to end.
func TestDaemonMultiTenant(t *testing.T) {
	dir := t.TempDir()
	acmePath := filepath.Join(dir, "acme.txt")
	if err := os.WriteFile(acmePath, []byte("zebra\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, out, stop := startDaemon(t,
		"-tenant", "acme=dict:"+acmePath,
		"-max-inflight", "64")
	defer stop()

	probe := strings.NewReader
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, payload string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/octet-stream", probe(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// The bare path serves the base dictionary; /t/acme serves its own.
	if code, body := post("/scan", "a zebra met a virus"); code != 200 || !strings.Contains(body, `"count":1`) || !strings.Contains(body, `"virus"`) {
		t.Fatalf("default scan: %d: %s", code, body)
	}
	if code, body := post("/t/acme/scan", "a zebra met a virus"); code != 200 || !strings.Contains(body, `"zebra"`) || !strings.Contains(body, `"tenant":"acme"`) {
		t.Fatalf("acme scan: %d: %s", code, body)
	}
	if code, _ := post("/t/nobody/scan", "x"); code != 404 {
		t.Fatalf("unknown tenant: %d, want 404", code)
	}

	// /metrics exposes both tenants.
	code, body := get("/metrics")
	if code != 200 ||
		!strings.Contains(body, `cellmatch_requests_total{tenant="default"} 1`) ||
		!strings.Contains(body, `cellmatch_requests_total{tenant="acme"} 1`) {
		t.Fatalf("/metrics: %d: %s", code, body)
	}

	if !strings.Contains(out.String(), "tenant acme: loaded "+acmePath) {
		t.Fatalf("startup log missing tenant load line:\n%s", out.String())
	}
}

// TestDaemonTenantWatchHotSwap: -watch polls every tenant's source;
// rewriting one tenant's file hot-swaps only that tenant.
func TestDaemonTenantWatchHotSwap(t *testing.T) {
	dir := t.TempDir()
	acmePath := filepath.Join(dir, "acme.txt")
	if err := os.WriteFile(acmePath, []byte("zebra\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, out, stop := startDaemon(t,
		"-tenant", "acme=dict:"+acmePath,
		"-watch", "-watch-interval", "10ms")
	defer stop()

	probe := func() string {
		resp, err := http.Post(base+"/t/acme/scan", "application/octet-stream",
			strings.NewReader("YAK on the loose"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(probe(), `"count":1`) {
		if time.Now().After(deadline) {
			t.Fatalf("tenant hot swap never served: log\n%s", out.String())
		}
		if err := os.WriteFile(acmePath, []byte(fmt.Sprintf("yak\n# rev %d\n", time.Now().UnixNano())), 0o644); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "tenant acme: hot-swapped") {
		t.Fatalf("no tenant hot-swap log line:\n%s", out.String())
	}
	// The default tenant did not move.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"generation":1`) {
		t.Fatalf("default tenant moved: %s", body)
	}
}
