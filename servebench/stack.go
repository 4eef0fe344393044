package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

// stack is one serving stack built the way cellmatchd builds it with
// default flags (-dict path [-casefold]): a delta-aware dict registry in
// the default tenant slot, server.New with a zero Config, and a
// net/http server on a loopback listener.
type stack struct {
	reg  *registry.Registry
	srv  *server.Server
	hs   *http.Server
	url  string
	gate *hookHandler
	done chan struct{} // closed when Serve has returned
}

// hookHandler sits in front of Server.Handler(). With no tracer
// installed it only forwards; the traced run installs one to time the
// handler from outside the program.
type hookHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *hookHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id := r.Header.Get(traceHeader)
	r.Header.Del(traceHeader)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	tr.handlerDone(id, start, time.Now())
}

// daemonOptions are cellmatchd's compile options for -dict with its
// default -filter/-stride/-compressed/-compileworkers flags.
func daemonOptions(caseFold bool) core.Options {
	return core.Options{CaseFold: caseFold}
}

// startStack compiles the dictionary file, starts the server and
// returns once /healthz answers — the set-up that setup_s times.
func startStack(dictPath string, caseFold bool) (*stack, error) {
	reg := registry.NewDelta(dictPath, registry.DictDeltaLoader(dictPath, daemonOptions(caseFold)))
	if _, err := reg.Reload(); err != nil {
		return nil, err
	}
	ns := registry.NewNamespace()
	if err := ns.Set(registry.DefaultTenant, reg); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Namespace: ns})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &stack{
		reg:  reg,
		srv:  srv,
		gate: &hookHandler{next: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	st.hs = &http.Server{Handler: st.gate, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if err := st.ready(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) ready() error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	resp, err := cl.Get(st.url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// close stops accepting traffic, waits for Serve to return, then
// releases the server's pool and batcher.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = st.hs.Close()
	}
	<-st.done
	st.srv.Close()
}

// newClient returns a client that holds at most one connection, so
// each client goroutine is exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// stats reads the rung, filter and stride the daemon reports for its
// live dictionary.
func (st *stack) stats() (server.StatsResponse, error) {
	var out server.StatsResponse
	cl := newClient()
	defer cl.CloseIdleConnections()
	resp, err := cl.Get(st.url + "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}
