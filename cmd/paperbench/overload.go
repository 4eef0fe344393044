package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
	"cellmatch/internal/workload"
)

// runOverloadSmoke is the CI load-shedding check: an in-process server
// with a deliberately tiny admission budget takes a burst far wider
// than the budget, and the run passes only if the shedding contract
// held — every response is either a clean 200 or a 429 (nothing
// fails), at least one request was shed, every admitted response
// carries correct scan results, and the admitted high-water mark never
// exceeded the configured budget.
func runOverloadSmoke(w io.Writer, clients, maxInflight int) error {
	if clients <= maxInflight {
		return fmt.Errorf("overload: %d clients cannot oversubscribe budget %d", clients, maxInflight)
	}
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: 1})
	if err != nil {
		return err
	}
	m, err := core.Compile(pats, core.Options{CaseFold: true})
	if err != nil {
		return err
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 256 << 10, MatchEvery: 8 << 10, Dictionary: pats, Seed: 7,
	})
	if err != nil {
		return err
	}
	// Reference ground truth: every admitted response must report this
	// exact count — a shed-then-retried request that produced a partial
	// or corrupted scan would show up here.
	want, err := m.Count(data)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Registry:    registry.NewWithMatcher(m, "overload-smoke"),
		MaxInflight: maxInflight,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The burst: every client loops the same payload; 429s are retried
	// (that is the contract clients are asked to honor), so each client
	// eventually lands its quota of successful scans. Each body pauses
	// halfway so an admitted request holds its slot while others arrive:
	// on a busy host, scans that each end before the next request is
	// admitted would never oversubscribe the budget.
	const perClient = 8
	const bodyPause = 2 * time.Millisecond
	half := len(data) / 2
	var ok200, shed429 atomic.Uint64
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < perClient; {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/scan?count=1", io.MultiReader(
					bytes.NewReader(data[:half]), pause(bodyPause), bytes.NewReader(data[half:])))
				if err != nil {
					errc <- err
					return
				}
				req.ContentLength = int64(len(data))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var sr server.ScanResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						errc <- err
						return
					}
					if sr.Count != want {
						errc <- fmt.Errorf("admitted scan returned %d matches, want %d", sr.Count, want)
						return
					}
					ok200.Add(1)
					done++
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						errc <- fmt.Errorf("429 without Retry-After")
						return
					}
					shed429.Add(1)
				default:
					errc <- fmt.Errorf("/scan under overload: %s: %s", resp.Status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return fmt.Errorf("overload: %w", err)
	default:
	}

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

	fmt.Fprintf(w, "== Overload smoke: %d clients vs max-inflight=%d ==\n", clients, maxInflight)
	fmt.Fprintf(w, "200s=%d 429s=%d shed_total=%d inflight_peak=%d\n",
		ok200.Load(), shed429.Load(), st.Shed, st.InflightPeak)

	if got, wantOK := ok200.Load(), uint64(clients*perClient); got != wantOK {
		return fmt.Errorf("overload: %d successful scans, want %d", got, wantOK)
	}
	if shed429.Load() == 0 || st.Shed == 0 {
		return fmt.Errorf("overload: budget %d never shed under %d clients", maxInflight, clients)
	}
	if st.InflightPeak > int64(maxInflight) {
		return fmt.Errorf("overload: inflight peak %d exceeded budget %d", st.InflightPeak, maxInflight)
	}

	// /metrics must agree with /stats on the shed counter.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), fmt.Sprintf("cellmatch_requests_shed_total %d", st.Shed)) {
		return fmt.Errorf("overload: /metrics shed counter disagrees with /stats (%d)", st.Shed)
	}
	fmt.Fprintln(w, "load-shedding contract held: zero failed responses, budget respected")
	return nil
}

// pause is a reader that holds its caller for its duration, then ends:
// spliced into an io.MultiReader, it stalls a request body mid-stream.
type pause time.Duration

func (p pause) Read([]byte) (int, error) {
	time.Sleep(time.Duration(p))
	return 0, io.EOF
}
