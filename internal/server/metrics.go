package server

import (
	"fmt"
	"net/http"
	"time"
)

// handleMetrics serves the Prometheus text exposition (version 0.0.4):
// the same counters /stats reports as JSON, shaped for scraping —
// service totals per tenant, reload outcomes, the admission gauges,
// and each tenant's live dictionary generation. All sources are
// atomics or RCU reads; scraping never contends with the scan path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	metric := func(name, help, typ string, emit func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		emit()
		fmt.Fprintln(w)
	}
	perTenant := func(name string, value func(*tenantState) any) func() {
		return func() {
			for _, tn := range s.tenantNames {
				fmt.Fprintf(w, "%s{tenant=%q} %v\n", name, tn, value(s.tenants[tn]))
			}
		}
	}

	metric("cellmatch_uptime_seconds", "Seconds since the server started.", "gauge", func() {
		fmt.Fprintf(w, "cellmatch_uptime_seconds %.3f\n", time.Since(s.started).Seconds())
	})
	metric("cellmatch_pool_workers", "Shared scan pool size.", "gauge", func() {
		fmt.Fprintf(w, "cellmatch_pool_workers %d\n", s.pool.Workers())
	})

	metric("cellmatch_requests_total", "Scan requests served, by tenant.", "counter",
		perTenant("cellmatch_requests_total", func(t *tenantState) any { return t.counters.requests.Load() }))
	metric("cellmatch_bytes_scanned_total", "Payload bytes scanned, by tenant.", "counter",
		perTenant("cellmatch_bytes_scanned_total", func(t *tenantState) any { return t.counters.bytes.Load() }))
	metric("cellmatch_matches_total", "Dictionary matches reported, by tenant.", "counter",
		perTenant("cellmatch_matches_total", func(t *tenantState) any { return t.counters.matches.Load() }))
	metric("cellmatch_dictionary_generation", "Live dictionary generation, by tenant (0 = none loaded).", "gauge",
		perTenant("cellmatch_dictionary_generation", func(t *tenantState) any {
			if e := t.reg.Current(); e != nil {
				return e.Generation
			}
			return 0
		}))
	metric("cellmatch_reloads_total", "Dictionary reload attempts, by tenant and result.", "counter", func() {
		for _, tn := range s.tenantNames {
			ok, failed := s.tenants[tn].reg.Reloads()
			fmt.Fprintf(w, "cellmatch_reloads_total{tenant=%q,result=\"ok\"} %d\n", tn, ok)
			fmt.Fprintf(w, "cellmatch_reloads_total{tenant=%q,result=\"failed\"} %d\n", tn, failed)
		}
	})
	metric("cellmatch_reloads_delta_total", "Delta-aware reload outcomes, by tenant and mode: patched (incremental recompile reused compiled units) or unchanged (pattern set identical, swap skipped).", "counter", func() {
		for _, tn := range s.tenantNames {
			patched, unchanged := s.tenants[tn].reg.DeltaReloads()
			fmt.Fprintf(w, "cellmatch_reloads_delta_total{tenant=%q,mode=\"patched\"} %d\n", tn, patched)
			fmt.Fprintf(w, "cellmatch_reloads_delta_total{tenant=%q,mode=\"unchanged\"} %d\n", tn, unchanged)
		}
	})

	metric("cellmatch_inflight_requests", "Scan requests currently admitted.", "gauge", func() {
		fmt.Fprintf(w, "cellmatch_inflight_requests %d\n", s.adm.inflight.Load())
	})
	metric("cellmatch_inflight_requests_peak", "High-water mark of admitted concurrent scan requests.", "gauge", func() {
		fmt.Fprintf(w, "cellmatch_inflight_requests_peak %d\n", s.adm.peak.Load())
	})
	metric("cellmatch_queued_bytes", "Declared body bytes of admitted in-flight scan requests.", "gauge", func() {
		fmt.Fprintf(w, "cellmatch_queued_bytes %d\n", s.adm.queuedBytes.Load())
	})
	metric("cellmatch_requests_shed_total", "Scan requests refused with 429 by admission control.", "counter", func() {
		fmt.Fprintf(w, "cellmatch_requests_shed_total %d\n", s.adm.shed.Load())
	})
}
