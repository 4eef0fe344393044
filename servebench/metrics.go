package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end_to_end only
}

func bound(v float64) *float64 { return &v }

// endToEnd are the metrics a client of the daemon sees, from the
// untraced run. failed_frac is printed too but is not listed: it is 0
// on a correct run, and the result line carries it as failed/attempted.
var endToEnd = []metric{
	{"throughput_mbps", "MB/s", "higher", bound(0.25)},
	{"p50_ms", "ms", "lower", bound(0.25)},
	{"p99_ms", "ms", "lower", bound(0.25)},
	{"cpu_s_per_gb", "s/GB", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"heap_mb", "MB", "lower", bound(0.10)},
	{"reload_p50_ms", "ms", "lower", bound(0.25)},
	{"reload_p90_ms", "ms", "lower", bound(0.25)},
}

// perLayer are the traced run's numbers; LAYERS.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metric{
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.outside_handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.unattributed_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.encode_bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "core.findall_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "parallel.pool_vs_seq_ratio", Unit: "ratio", Better: "lower"},
	{Name: "filter.segments_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "filter.skip_pct", Unit: "%", Better: "higher"},
	{Name: "filter.verify_frac", Unit: "frac", Better: "lower"},
	{Name: "kernel.scan_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "kernel.verify_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "kernel.table_kb", Unit: "KB", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "dfa.build_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.swap_us", Unit: "us", Better: "lower"},
	{Name: "runtime.alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

const runSeconds = 40

// benchmarkFile is BENCHMARK.json, generated from the definitions
// above by -describe and checked against the committed copy by the
// tests.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workDesc `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

type workDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describe() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "servebench/run.sh"},
		Paths:      []string{"servebench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if w.listed {
			f.Workloads = append(f.Workloads, workDesc{w.name, w.why})
		}
	}
	return f
}

func writeDescribe(w io.Writer) error {
	b, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
