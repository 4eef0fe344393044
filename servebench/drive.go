package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/server"
)

// wireMatch is the part of a /scan match the oracle checks.
type wireMatch struct {
	Pattern int `json:"pattern"`
	End     int `json:"end"`
}

type wireScan struct {
	Bytes   int         `json:"bytes"`
	Count   int         `json:"count"`
	Matches []wireMatch `json:"matches"`
}

// verify compares one /scan reply against the payload's reference
// (End, Pattern) list, in order.
func verify(body []byte, payloadLen int, ref []core.Match) error {
	var got wireScan
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if got.Bytes != payloadLen || got.Count != len(ref) || len(got.Matches) != len(ref) {
		return fmt.Errorf("reply bytes=%d count=%d matches=%d, want bytes=%d count=%d",
			got.Bytes, got.Count, len(got.Matches), payloadLen, len(ref))
	}
	for i, m := range got.Matches {
		if m.Pattern != ref[i].Pattern || m.End != ref[i].End {
			return fmt.Errorf("match %d = (end %d, pattern %d), want (end %d, pattern %d)",
				i, m.End, m.Pattern, ref[i].End, ref[i].Pattern)
		}
	}
	return nil
}

// load is one closed-loop drive of the stack: the scan clients, plus
// the reload connection when the workload has one.
type load struct {
	url      string
	payloads [][]byte
	refs     [][]core.Match
	clients  int
	// reload, when reloadEvery > 0, alternates delta reloads between
	// the two reload dictionary files for as long as the scans run.
	reloadEvery time.Duration
	basePath    string
	reloadPaths [2]string
	caseFold    bool
	tr          *tracer // nil: untraced
	// published counts reloads issued so far, so the alternation
	// continues across runs and every reload changes the dictionary.
	published int
}

type loadResult struct {
	elapsed      time.Duration
	scanMS       []float64 // client-observed latency of every completed /scan
	okBytes      int64     // payload bytes of correct replies
	scans        int
	scanFailed   int
	reloadMS     []float64 // reload latency, timed from when it was due
	reloads      int
	reloadFailed int
	reloadLate   time.Duration // most a reload started after it was due
	firstErr     string
}

func (r *loadResult) fail(msg string) {
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

// add folds o into r; elapsed times add up.
func (r *loadResult) add(o loadResult) {
	r.elapsed += o.elapsed
	r.scanMS = append(r.scanMS, o.scanMS...)
	r.okBytes += o.okBytes
	r.scans += o.scans
	r.scanFailed += o.scanFailed
	r.reloadMS = append(r.reloadMS, o.reloadMS...)
	r.reloads += o.reloads
	r.reloadFailed += o.reloadFailed
	r.reloadLate = max(r.reloadLate, o.reloadLate)
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

func (r loadResult) mbps() float64 { return float64(r.okBytes) / 1e6 / r.elapsed.Seconds() }

func (r loadResult) attempted() int { return r.scans + r.reloads }
func (r loadResult) failed() int    { return r.scanFailed + r.reloadFailed }

// run drives the stack for d. Every client sends its next request only
// after the previous reply has arrived.
func (l *load) run(d time.Duration) loadResult {
	start := time.Now()
	deadline := start.Add(d)
	per := make([]loadResult, l.clients)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = l.scanClient(i, func() bool { return time.Now().Before(deadline) })
		}()
	}
	stop := make(chan struct{})
	var rel loadResult
	var rwg sync.WaitGroup
	if l.reloadEvery > 0 {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			rel = l.reloadClient(l.reloadEvery, start, 0, stop)
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	out := rel
	for _, p := range per {
		out.add(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// scanClient sends /scan requests for as long as more says so.
func (l *load) scanClient(idx int, more func() bool) loadResult {
	var out loadResult
	cl := newClient()
	defer cl.CloseIdleConnections()
	// One reply buffer per client keeps the client's allocations, and
	// so its share of the garbage collector's work, small.
	var buf bytes.Buffer
	n := len(l.payloads)
	next := idx * n / l.clients
	for more() {
		p := next % n
		next++
		out.scans++
		req, err := http.NewRequest(http.MethodPost, l.url+"/scan", bytes.NewReader(l.payloads[p]))
		if err != nil {
			out.scanFailed++
			out.fail(err.Error())
			continue
		}
		var id uint64
		if l.tr != nil {
			id = l.tr.newTrace()
			req.Header.Set(traceHeader, fmt.Sprint(id))
		}
		t0 := time.Now()
		resp, err := cl.Do(req)
		if err != nil {
			out.scanFailed++
			out.fail(err.Error())
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		body := buf.Bytes()
		t1 := time.Now()
		if l.tr != nil {
			l.tr.clientDone(id, p, t0, t1)
		}
		out.scanMS = append(out.scanMS, ms(t1.Sub(t0)))
		switch {
		case err != nil:
			err = fmt.Errorf("read reply: %w", err)
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("/scan status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		default:
			err = verify(body, len(l.payloads[p]), l.refs[p])
		}
		if err != nil {
			out.scanFailed++
			out.fail(fmt.Sprintf("payload %d: %v", p, err))
			continue
		}
		out.okBytes += int64(len(l.payloads[p]))
	}
	return out
}

// reloadClient issues /reload?mode=delta from its own connection,
// alternating between the two reload dictionary files. With every > 0
// it keeps a fixed schedule and times each reload from when it was
// due; with every == 0 it sends each reload as soon as the last has
// answered and times it from its send. It stops after count reloads
// (count > 0) or when stop closes.
func (l *load) reloadClient(every time.Duration, start time.Time, count int, stop <-chan struct{}) loadResult {
	var out loadResult
	cl := newClient()
	defer cl.CloseIdleConnections()
	for k := 0; count <= 0 || k < count; k++ {
		due := start.Add(time.Duration(k+1) * every)
		if every == 0 {
			due = time.Now()
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return out
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		if late := time.Since(due); late > out.reloadLate {
			out.reloadLate = late
		}
		path := l.reloadPaths[l.published%2]
		l.published++
		out.reloads++
		err := reloadOnce(cl, l.reloadURL(path))
		out.reloadMS = append(out.reloadMS, ms(time.Since(due)))
		if err != nil {
			out.reloadFailed++
			out.fail(err.Error())
		}
	}
	return out
}

// probeReloads times n back-to-back reloads while the scan clients keep
// running. The scans keep the cores busy, so no reload starts by waking
// an idle CPU; their replies are checked but not timed. An untimed
// reload moves the stack from base to the first reload version before
// the timed ones and another moves it back after, so the scans outside
// the probes always see the base dictionary.
func (l *load) probeReloads(n int) loadResult {
	var done atomic.Bool
	per := make([]loadResult, l.clients)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = l.scanClient(i, func() bool { return !done.Load() })
		}()
	}
	l.published = 0
	out := l.reloadClient(0, time.Now(), n+1, nil)
	if len(out.reloadMS) > 0 {
		out.reloadMS = out.reloadMS[1:]
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	out.reloads++
	if err := reloadOnce(cl, l.reloadURL(l.basePath)); err != nil {
		out.reloadFailed++
		out.fail(err.Error())
	}
	done.Store(true)
	wg.Wait()
	for _, p := range per {
		p.scanMS, p.okBytes = nil, 0
		out.add(p)
	}
	return out
}

func (l *load) reloadURL(path string) string {
	q := url.Values{"mode": {"delta"}, "format": {"dict"}, "path": {path}}
	if l.caseFold {
		q.Set("casefold", "1")
	}
	return l.url + "/reload?" + q.Encode()
}

func reloadOnce(cl *http.Client, target string) error {
	resp, err := cl.Post(target, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read reload reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/reload status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rr server.ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decode reload reply: %w", err)
	}
	if rr.Outcome == "unchanged" {
		return fmt.Errorf("reload to %s published nothing", rr.Source)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
