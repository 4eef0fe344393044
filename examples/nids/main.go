// NIDS: the paper's motivating scenario, served. A network intrusion
// detection system filters a continuous traffic feed against a
// signature dictionary — the paper's headline workload ("two
// processing elements alone ... filter a network link with bit rates
// in excess of 10 Gbps"). Earlier revisions of this example called the
// library directly; this one runs the full serving stack the way a
// deployment would: an in-process cellmatchd (internal/server behind
// an httptest listener) keeps the compiled kernel tables hot, traffic
// is POSTed to /scan and streamed to /scan/stream, the signature set
// is hot-swapped through /reload mid-run without dropping a request,
// and /stats reports the service counters. The Cell deployment
// estimate at the end is unchanged.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"cellmatch"
	"cellmatch/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Snort-flavored signature dictionary, compiled once and kept hot.
	dict := workload.SignatureDictionary()
	m, err := cellmatch.Compile(dict, cellmatch.Options{
		CaseFold: true,
		Groups:   2, // two parallel tiles, as in the paper's headline
	})
	if err != nil {
		return err
	}

	// The serving stack: registry (hot-swap) + HTTP matching service
	// with a shared scan pool, exactly what cellmatchd runs.
	reg := cellmatch.NewMatcherRegistry(m, "signatures-v1")
	srv, err := cellmatch.NewServer(cellmatch.ServerConfig{Registry: reg})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 4 MB of synthetic traffic with one planted signature per ~8 KB.
	traffic, planted, err := workload.Traffic(workload.TrafficConfig{
		Bytes:      4 << 20,
		MatchEvery: 8 << 10,
		Dictionary: dict,
		Seed:       2007,
	})
	if err != nil {
		return err
	}

	// Feed the capture through POST /scan (the shared-pool path).
	start := time.Now()
	scan, err := postScan(ts.URL+"/scan?count=1", bytes.NewReader(traffic))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "scanned %d MB over /scan, planted %d signatures, detected %d hits (gen %d, engine %s) in %v\n",
		len(traffic)>>20, planted, scan.Count, scan.Generation, scan.Engine, elapsed.Round(time.Millisecond))
	if scan.Count < planted {
		return fmt.Errorf("missed signatures: %d < %d", scan.Count, planted)
	}

	// The same capture as a chunked upload through /scan/stream — the
	// socket-feed path; the service never buffers the whole body.
	streamed, err := postScan(ts.URL+"/scan/stream?count=1", bytes.NewReader(traffic))
	if err != nil {
		return err
	}
	if streamed.Count != scan.Count {
		return fmt.Errorf("streamed scan diverged: %d vs %d hits", streamed.Count, scan.Count)
	}
	fmt.Fprintf(w, "streamed scan (/scan/stream): %d hits (identical)\n", streamed.Count)

	// Hot-swap: extend the dictionary with a fresh signature, publish
	// it through /reload, and rescan — no restart, no dropped traffic.
	extended := append(append([][]byte{}, dict...), []byte("zero-day-beacon"))
	m2, err := cellmatch.Compile(extended, cellmatch.Options{CaseFold: true, Groups: 2})
	if err != nil {
		return err
	}
	artifact, err := saveArtifact(m2)
	if err != nil {
		return err
	}
	defer os.Remove(artifact)
	reload, err := postJSON(ts.URL + "/reload?path=" + artifact)
	if err != nil {
		return err
	}
	evil := append(bytes.Repeat([]byte("innocuous payload "), 4096), []byte("...ZERO-DAY-BEACON...")...)
	after, err := postScan(ts.URL+"/scan?count=1", bytes.NewReader(evil))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hot-swapped to generation %d (%v patterns); zero-day probe now detected: %d hit\n",
		after.Generation, reload["patterns"], after.Count)
	if after.Generation <= scan.Generation {
		return fmt.Errorf("reload did not advance the generation")
	}
	if after.Count != 1 {
		return fmt.Errorf("hot-swapped dictionary missed the zero-day: %d hits", after.Count)
	}

	// Service counters so far.
	stats, err := getJSON(ts.URL + "/stats")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "service stats: %v requests, %v bytes scanned, %v matches found\n",
		stats["requests"], stats["bytes_scanned"], stats["matches_found"])

	// Can this two-tile deployment filter a 10 Gbps link?
	est, err := cellmatch.EstimateCell(m, cellmatch.DefaultBlade(), int64(len(traffic)))
	if err != nil {
		return err
	}
	verdict := "NO"
	if est.SimulatedGbps >= 10 {
		verdict = "YES"
	}
	fmt.Fprintf(w, "deployment: %d tiles x %.2f Gbps -> %.2f Gbps simulated; 10 Gbps link: %s\n",
		est.TilesUsed, est.PerTileGbps, est.SimulatedGbps, verdict)

	// How many SPEs would a 40 Gbps backbone need?
	n, err := cellmatch.MinimumSPEsFor(40, est.PerTileGbps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a 40 Gbps link needs %d parallel tiles (one Cell has 8 SPEs)\n", n)
	return nil
}

// postScan POSTs a payload to a scan endpoint and decodes the reply.
func postScan(url string, body io.Reader) (*cellmatch.ScanResponse, error) {
	resp, err := http.Post(url, "application/octet-stream", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
	}
	var sr cellmatch.ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

func postJSON(url string) (map[string]any, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return nil, err
	}
	return decodeJSON(resp, url)
}

func getJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	return decodeJSON(resp, url)
}

func decodeJSON(resp *http.Response, url string) (map[string]any, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// saveArtifact writes a compiled matcher to a temp file and returns
// its path — the shippable form /reload consumes.
func saveArtifact(m *cellmatch.Matcher) (string, error) {
	f, err := os.CreateTemp("", "nids-signatures-v2-*.cms")
	if err != nil {
		return "", err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), f.Close()
}
