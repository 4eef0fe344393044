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
// throughput, small-payload /scan/batch coalescing, and a chunked
// /scan/stream upload. Serialized to BENCH_server.json so the service
// throughput is tracked per commit alongside the kernel numbers.
//
// The /scan rows are medians over scanRounds closed-loop rounds of the
// whole input: one round's p99 rests on a handful of requests and
// swings by several times between runs of one tree.
type ServerBench struct {
	InputBytes int `json:"input_bytes"`
	DictStates int `json:"dict_states"`

	ScanPayloadBytes int     `json:"scan_payload_bytes"`
	ScanMBps         float64 `json:"scan_MBps"`
	ScanReqPerSec    float64 `json:"scan_req_per_sec"`
	ScanP50Ms        float64 `json:"server_scan_p50_ms"`
	ScanP99Ms        float64 `json:"server_scan_p99_ms"`

	BatchPayloadBytes int     `json:"batch_payload_bytes"`
	BatchMBps         float64 `json:"batch_MBps"`
	BatchReqPerSec    float64 `json:"batch_req_per_sec"`
	BatchCoalesceAvg  float64 `json:"batch_coalesce_avg"`
	BatchP50Ms        float64 `json:"server_batch_p50_ms"`
	BatchP99Ms        float64 `json:"server_batch_p99_ms"`

	StreamMBps float64 `json:"stream_MBps"`
}

// driveResult is one closed-loop run: aggregate throughput plus the
// per-request latency distribution.
type driveResult struct {
	MBps      float64
	ReqPerSec float64
	P50Ms     float64
	P99Ms     float64
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
		P99Ms:     percentile(all, 0.99),
	}, nil
}

// scanRounds is how many closed-loop /scan rounds the server bench
// takes the median of.
const scanRounds = 5

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
		InputBytes:        inputBytes,
		DictStates:        m.Stats().States,
		ScanPayloadBytes:  256 << 10,
		BatchPayloadBytes: 4 << 10,
	}

	// Large-payload /scan: the capture-replay workload.
	scanURL := ts.URL + "/scan?count=1"
	payloads := slicePayloads(data, res.ScanPayloadBytes)
	if _, err := driveConcurrent(scanURL, payloads[:min(4, len(payloads))], 2); err != nil {
		return err // warmup
	}
	var mbps, rps, p50, p99 []float64
	for i := 0; i < scanRounds; i++ {
		scan, err := driveConcurrent(scanURL, payloads, 8)
		if err != nil {
			return err
		}
		mbps, rps = append(mbps, scan.MBps), append(rps, scan.ReqPerSec)
		p50, p99 = append(p50, scan.P50Ms), append(p99, scan.P99Ms)
	}
	var mbpsLo, mbpsHi, p50Lo, p50Hi, p99Lo, p99Hi float64
	res.ScanMBps, mbpsLo, mbpsHi = spread(mbps)
	res.ScanReqPerSec, _, _ = spread(rps)
	res.ScanP50Ms, p50Lo, p50Hi = spread(p50)
	res.ScanP99Ms, p99Lo, p99Hi = spread(p99)

	// Small-payload /scan/batch: the many-tiny-requests workload the
	// coalescer exists for. A slice of the traffic keeps the request
	// count (and wall time) sane.
	batchData := data[:min(len(data), inputBytes/4)]
	batchPayloads := slicePayloads(batchData, res.BatchPayloadBytes)
	batch, err := driveConcurrent(ts.URL+"/scan/batch?count=1", batchPayloads, 32)
	if err != nil {
		return err
	}
	res.BatchMBps, res.BatchReqPerSec = batch.MBps, batch.ReqPerSec
	res.BatchP50Ms, res.BatchP99Ms = batch.P50Ms, batch.P99Ms
	var st server.StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if st.Batches > 0 {
		res.BatchCoalesceAvg = float64(st.BatchPayloads) / float64(st.Batches)
	}

	// One chunked upload of the whole capture through /scan/stream.
	start := time.Now()
	resp, err = http.Post(ts.URL+"/scan/stream?count=1", "application/octet-stream", bytes.NewReader(data))
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
	t.Row(fmt.Sprintf("/scan/batch x32 clients (%d KiB payloads)", res.BatchPayloadBytes>>10),
		res.BatchMBps, res.BatchReqPerSec, res.BatchP50Ms, res.BatchP99Ms)
	t.Row("/scan/stream single upload", res.StreamMBps, "", "", "")
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "/scan over %d rounds, min-max: %.1f-%.1f MB/s, p50 %.3f-%.3f ms, p99 %.3f-%.3f ms\n",
		scanRounds, mbpsLo, mbpsHi, p50Lo, p50Hi, p99Lo, p99Hi)
	fmt.Fprintf(w, "batch coalescing: %.1f payloads per kernel pass on average\n\n", res.BatchCoalesceAvg)

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
