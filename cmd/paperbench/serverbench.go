package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/report"
	"cellmatch/internal/server"
	"cellmatch/internal/workload"
)

// ServerBench measures the serving layer end to end — HTTP in, JSON
// out — on the paper's 1520-state dictionary: large-payload /scan
// throughput, small-payload /scan (bodies that fit one chunk), and a
// chunked /scan/stream upload. Serialized to BENCH_server.json so the
// service throughput is tracked per commit alongside the kernel
// numbers.
//
// Each /scan row runs scanRounds closed-loop rounds. Throughput and
// p50 are the medians of the rounds' figures; p99 is taken over every
// request of every round pooled, since one round's p99 rests on a
// handful of requests and swings by several times between runs of one
// tree.
type ServerBench struct {
	InputBytes int `json:"input_bytes"`
	DictStates int `json:"dict_states"`

	ScanPayloadBytes int     `json:"scan_payload_bytes"`
	ScanMBps         float64 `json:"scan_MBps"`
	ScanReqPerSec    float64 `json:"scan_req_per_sec"`
	ScanP50Ms        float64 `json:"server_scan_p50_ms"`
	ScanP99Ms        float64 `json:"server_scan_p99_ms"`

	SmallScanPayloadBytes int     `json:"small_scan_payload_bytes"`
	SmallScanMBps         float64 `json:"small_scan_MBps"`
	SmallScanReqPerSec    float64 `json:"small_scan_req_per_sec"`
	SmallScanP50Ms        float64 `json:"server_small_scan_p50_ms"`
	SmallScanP99Ms        float64 `json:"server_small_scan_p99_ms"`

	StreamMBps float64 `json:"stream_MBps"`
}

// driveResult is one closed-loop run: aggregate throughput plus the
// per-request latency distribution.
type driveResult struct {
	MBps      float64
	ReqPerSec float64
	P50Ms     float64
	// LatsMs holds every request's latency, sorted.
	LatsMs []float64
}

// percentile returns the q-quantile (0..1) of sorted latencies by
// nearest-rank; zero when the sample is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// driveConcurrent posts every payload once across `clients` concurrent
// connections (a closed loop: each client issues its next request as
// soon as the previous response lands) and records per-request wall
// latency alongside the aggregate throughput.
func driveConcurrent(url string, payloads [][]byte, clients int) (driveResult, error) {
	var next int
	var mu sync.Mutex
	take := func() []byte {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(payloads) {
			return nil
		}
		p := payloads[next]
		next++
		return p
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	errc := make(chan error, clients)
	lats := make([][]float64, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				p := take()
				if p == nil {
					return
				}
				t0 := time.Now()
				resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(p))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: %s", url, resp.Status)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(t0).Microseconds())/1e3)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	select {
	case err := <-errc:
		return driveResult{}, err
	default:
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return driveResult{
		MBps:      float64(total) / 1e6 / wall,
		ReqPerSec: float64(len(payloads)) / wall,
		P50Ms:     percentile(all, 0.50),
		LatsMs:    all,
	}, nil
}

// scanRounds is how many closed-loop /scan rounds the server bench
// takes the median of.
const scanRounds = 5

// roundsResult is scanRounds closed-loop rounds of one workload: the
// median of each round's throughput and p50 with their min-max, and
// the p99 of every request of every round pooled.
type roundsResult struct {
	MBps, MBpsLo, MBpsHi float64
	ReqPerSec            float64
	P50Ms, P50Lo, P50Hi  float64
	P99Ms                float64
	Requests             int // requests pooled into P99Ms
}

// driveRounds posts every payload once per round, scanRounds times,
// across clients concurrent connections.
func driveRounds(url string, payloads [][]byte, clients int) (roundsResult, error) {
	var mbps, rps, p50, lats []float64
	for i := 0; i < scanRounds; i++ {
		r, err := driveConcurrent(url, payloads, clients)
		if err != nil {
			return roundsResult{}, err
		}
		mbps, rps, p50 = append(mbps, r.MBps), append(rps, r.ReqPerSec), append(p50, r.P50Ms)
		lats = append(lats, r.LatsMs...)
	}
	sort.Float64s(lats)
	var res roundsResult
	res.MBps, res.MBpsLo, res.MBpsHi = spread(mbps)
	res.ReqPerSec, _, _ = spread(rps)
	res.P50Ms, res.P50Lo, res.P50Hi = spread(p50)
	res.P99Ms, res.Requests = percentile(lats, 0.99), len(lats)
	return res, nil
}

// spread returns the median, minimum and maximum of vals (not empty).
func spread(vals []float64) (med, lo, hi float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return med, s[0], s[n-1]
}

// slicePayloads cuts data into size-byte payloads.
func slicePayloads(data []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += size {
		end := min(off+size, len(data))
		out = append(out, data[off:end])
	}
	return out
}

// runServerBench stands up the full serving stack in-process and
// measures it over inputBytes of the usual synthetic traffic.
func runServerBench(w io.Writer, inputBytes int, jsonPath string) error {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: 1})
	if err != nil {
		return err
	}
	// Filter pinned off so scan_MBps/stream_MBps keep measuring the
	// serving stack over the raw kernel, independent of the auto gates.
	m, err := core.Compile(pats, core.Options{
		CaseFold: true,
		Engine:   core.EngineOptions{Filter: core.FilterOff},
	})
	if err != nil {
		return err
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: inputBytes, MatchEvery: 64 << 10, Dictionary: pats, Seed: 33,
	})
	if err != nil {
		return err
	}
	reg := registry.NewWithMatcher(m, "bench")
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := ServerBench{
		InputBytes:            inputBytes,
		DictStates:            m.Stats().States,
		ScanPayloadBytes:      256 << 10,
		SmallScanPayloadBytes: 4 << 10,
	}

	// Large-payload /scan: the capture-replay workload.
	scanURL := ts.URL + "/scan?count=1"
	payloads := slicePayloads(data, res.ScanPayloadBytes)
	if _, err := driveConcurrent(scanURL, payloads[:min(4, len(payloads))], 2); err != nil {
		return err // warmup
	}
	scan, err := driveRounds(scanURL, payloads, 8)
	if err != nil {
		return err
	}
	res.ScanMBps, res.ScanReqPerSec = scan.MBps, scan.ReqPerSec
	res.ScanP50Ms, res.ScanP99Ms = scan.P50Ms, scan.P99Ms

	// Small-payload /scan: many concurrent bodies of one chunk each, which
	// the handlers scan themselves. A slice of the traffic keeps the
	// request count (and wall time) sane.
	smallData := data[:min(len(data), inputBytes/4)]
	small, err := driveRounds(scanURL, slicePayloads(smallData, res.SmallScanPayloadBytes), 32)
	if err != nil {
		return err
	}
	res.SmallScanMBps, res.SmallScanReqPerSec = small.MBps, small.ReqPerSec
	res.SmallScanP50Ms, res.SmallScanP99Ms = small.P50Ms, small.P99Ms

	// One chunked upload of the whole capture through /scan/stream.
	start := time.Now()
	resp, err := http.Post(ts.URL+"/scan/stream?count=1", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/scan/stream: %s", resp.Status)
	}
	res.StreamMBps = float64(len(data)) / 1e6 / time.Since(start).Seconds()

	fmt.Fprintf(w, "== Server engine: cellmatchd end-to-end throughput (%d-state dictionary, %d MiB) ==\n",
		res.DictStates, inputBytes>>20)
	t := report.NewTable("Endpoint / workload", "MB/s", "req/s", "p50 ms", "p99 ms")
	t.Row(fmt.Sprintf("/scan x8 clients (%d KiB payloads, median of %d)", res.ScanPayloadBytes>>10, scanRounds),
		res.ScanMBps, res.ScanReqPerSec, res.ScanP50Ms, res.ScanP99Ms)
	t.Row(fmt.Sprintf("/scan x32 clients (%d KiB payloads, median of %d)", res.SmallScanPayloadBytes>>10, scanRounds),
		res.SmallScanMBps, res.SmallScanReqPerSec, res.SmallScanP50Ms, res.SmallScanP99Ms)
	t.Row("/scan/stream single upload", res.StreamMBps, "", "", "")
	if err := t.Write(w); err != nil {
		return err
	}
	summary := func(payloadBytes int, r roundsResult) {
		fmt.Fprintf(w, "/scan over %d rounds, min-max: %.1f-%.1f MB/s, p50 %.3f-%.3f ms; p99 over all %d requests (%d KiB payloads)\n",
			scanRounds, r.MBpsLo, r.MBpsHi, r.P50Lo, r.P50Hi, r.Requests, payloadBytes>>10)
	}
	summary(res.ScanPayloadBytes, scan)
	summary(res.SmallScanPayloadBytes, small)
	fmt.Fprintln(w)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n\n", jsonPath)
	}
	return nil
}
