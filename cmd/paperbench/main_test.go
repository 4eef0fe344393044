package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCheapFigures(t *testing.T) {
	// Figures 2, 3, 6, 7 are analytic (no simulator run beyond the
	// base Table 1 measurement), so -all minus the heavy sections
	// exercises the full reporting path quickly.
	var b strings.Builder
	err := run(&b, sections{fig2: true, fig3: true})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Figure 2: aggregate memory bandwidth",
		"== Figure 3: SPE local store usage",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1AndComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SPU simulator over five kernel versions")
	}
	var b strings.Builder
	err := run(&b, sections{table1: true, fig6: true, fig7: true})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Table 1: DFA tile implementation versions",
		"Cycles per transition",
		"== Figure 6: composing tiles in parallel and in series",
		"== Figure 7: mixed series/parallel configuration",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigures4589(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SPU simulator")
	}
	var b strings.Builder
	err := run(&b, sections{fig4: true, fig5: true, fig8: true, fig9: true})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Figure 4: optimal SIMD kernel data flow",
		"== Figure 5: double-buffering schedule",
		"== Figure 8: dynamic STT replacement schedule",
		"== Figure 9: throughput vs aggregate STT size",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunKernelBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	// 64 KiB keeps the timing loops fast; the JSON schema and engine
	// selection are what this test pins.
	err := run(&b, sections{kernel: true, kernelBytes: 64 << 10, benchJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Kernel engine: old vs new scan throughput",
		"kernel lanes (default lane rule)",
		"stride-2 single-stream",
		"best kernel vs stt.Lookup sequential",
		"stride-2 vs kernel single-stream",
		"big dictionary: kernel lanes",
		"compressed rows (over-dense-budget dictionary)",
		"compressed vs stt on a",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res KernelBench
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_kernel.json does not parse: %v", err)
	}
	if res.InputBytes != 64<<10 || res.DictStates < 1400 {
		t.Fatalf("bench metadata wrong: %+v", res)
	}
	for name, v := range map[string]float64{
		"stt_lookup":     res.STTLookupSeq,
		"stt_findall":    res.STTFindAllSeq,
		"kernel_seq":     res.KernelSeq,
		"kernel_lanes":   res.KernelLanes,
		"kernel_bigdict": res.KernelBigDict,
		"stride2_seq":    res.Stride2Seq,
		"compressed_seq": res.CompressedSeq,
		"stt_compressed": res.STTCompressedDict,
		"parallel_4":     res.Parallel4,
		"parallel_4_ser": res.Parallel4Serial,
		"speedup":        res.SpeedupVsLookup,
		"speedup_s2":     res.SpeedupStride2,
		"speedup_comp":   res.SpeedupCompressed,
	} {
		if v <= 0 {
			t.Fatalf("%s not measured: %+v", name, res)
		}
	}
	if res.CompressedDictStates < 20000 {
		t.Fatalf("compressed section dictionary too small to overflow the dense budget: %+v", res)
	}
	if !gatedMetric("parallel_4workers_kernel_serial_MBps") {
		t.Fatal("pooled InterleaveK 1 row not gated by -checkbench")
	}
	if !gatedMetric("kernel_bigdict_lanes_MBps") {
		t.Fatal("big-dictionary dense row not gated by -checkbench")
	}
	if !gatedMetric("compressed_MBps") || !gatedMetric("speedup_compressed_vs_stt") {
		t.Fatal("compressed rows not gated by -checkbench")
	}
	if gatedMetric("stt_compressed_dict_MBps") {
		t.Fatal("stt comparator row must stay informational")
	}
	if !metaMetric("compressed_dict_states") {
		t.Fatal("compressed_dict_states must be a meta field")
	}
}

func TestParseFlagsDefaultsToAll(t *testing.T) {
	var errOut strings.Builder
	cfg, err := parseFlags(nil, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.secs
	if cfg.check || !s.table1 || !s.kernel || !s.server || !s.shards || !s.filter || !s.scenarios || !s.compile {
		t.Fatalf("bare invocation did not select everything: %+v", s)
	}
	if s.kernelBytes != 8<<20 || s.serverBytes != 16<<20 || s.shardBytes != 8<<20 ||
		s.filterBytes != 16<<20 || s.scenarioBytes != 4<<20 || s.compilePats != 50000 {
		t.Fatalf("default sizes wrong: %+v", s)
	}
}

func TestParseFlagsSingleSection(t *testing.T) {
	var errOut strings.Builder
	cfg, err := parseFlags([]string{"-shards", "-shardsmb", "2", "-shardsjson", "out.json"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.secs
	if !s.shards || s.shardBytes != 2<<20 || s.shardJSON != "out.json" {
		t.Fatalf("-shards selection wrong: %+v", s)
	}
	if s.kernel || s.server || s.filter || s.scenarios || s.table1 {
		t.Fatalf("-shards selected extra sections: %+v", s)
	}

	cfg, err = parseFlags([]string{"-server", "-servermb", "1", "-serverjson", "s.json",
		"-filter", "-filtermb", "3", "-filterjson", "f.json",
		"-scenarios", "-scenarioskb", "512", "-scenariosjson", "sc.json"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s = cfg.secs
	if !s.server || s.serverBytes != 1<<20 || s.serverJSON != "s.json" {
		t.Fatalf("-server flags wrong: %+v", s)
	}
	if !s.filter || s.filterBytes != 3<<20 || s.filterJSON != "f.json" {
		t.Fatalf("-filter flags wrong: %+v", s)
	}
	if !s.scenarios || s.scenarioBytes != 512<<10 || s.scenarioJSON != "sc.json" {
		t.Fatalf("-scenarios flags wrong: %+v", s)
	}
	if s.shards || s.kernel {
		t.Fatalf("unselected sections enabled: %+v", s)
	}

	cfg, err = parseFlags([]string{"-compile", "-compilepats", "1000", "-compilejson", "c.json"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s = cfg.secs
	if !s.compile || s.compilePats != 1000 || s.compileJSON != "c.json" {
		t.Fatalf("-compile flags wrong: %+v", s)
	}
	if s.kernel || s.server || s.shards || s.filter || s.scenarios || s.table1 {
		t.Fatalf("-compile selected extra sections: %+v", s)
	}
}

func TestParseFlagsCheckbench(t *testing.T) {
	var errOut strings.Builder
	cfg, err := parseFlags([]string{"-checkbench",
		"-baseline", "a.json,b.json", "-candidate", "c.json,d.json", "-maxdrop", "0.1"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.check || cfg.baseline != "a.json,b.json" || cfg.candidate != "c.json,d.json" || cfg.maxDrop != 0.1 {
		t.Fatalf("checkbench config wrong: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-checkbench"}, &errOut); err == nil {
		t.Fatal("-checkbench without -candidate accepted")
	}
	if _, err := parseFlags([]string{"-notaflag"}, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"-kernel", "stray"}, &errOut); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}

func TestRunScenarioBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	// 16 KiB corpora keep the suite fast; the flat schema, the gated
	// key shape, and the served-regex row are what this test pins.
	err := run(&b, sections{scenarios: true, scenarioBytes: 16 << 10, scenarioJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Scenario suite: engine ladder across deployment regimes",
		"log-scan",
		"regex-logs (served /scan)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	if err := json.Unmarshal(blob, &metrics); err != nil {
		t.Fatalf("BENCH_scenarios.json does not parse: %v", err)
	}
	if metrics["scenarios"] < 5 {
		t.Fatalf("suite records %v scenarios, want >= 5", metrics["scenarios"])
	}
	gated := 0
	for k, v := range metrics {
		if strings.HasPrefix(k, "scenario_") && strings.HasSuffix(k, "_MBps") {
			gated++
			if !gatedMetric(k) {
				t.Fatalf("throughput key %s not gated by -checkbench", k)
			}
			if v <= 0 {
				t.Fatalf("%s not measured: %v", k, v)
			}
		}
	}
	if gated < 6 { // >= 5 scenarios + the served regex row
		t.Fatalf("only %d gated throughput rows", gated)
	}
	if _, ok := metrics["scenario_regex-logs_served_MBps"]; !ok {
		t.Fatal("regex scenario not served through the HTTP stack")
	}
	if gatedMetric("scenario_log-scan_skip_pct") {
		t.Fatal("skip-ratio evidence rows must stay informational")
	}
	if !metaMetric("scenarios") {
		t.Fatal("scenarios count must be a meta field")
	}
	if metrics["scenario_log-scan_skip_pct"] <= 0 {
		t.Fatalf("log-scan skip evidence missing: %v", metrics["scenario_log-scan_skip_pct"])
	}
}

func TestRunCompileBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_compile.json")
	// 600 patterns keeps the fleet compiles in the milliseconds; the
	// schema, the identity checks, and the gating shape are what this
	// test pins (the speedups themselves are hardware-dependent).
	err := run(&b, sections{compile: true, compilePats: 600, compileJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Compile latency: cold vs parallel vs incremental",
		"fleet cold (1 worker)",
		"fleet parallel (all cores)",
		"image identical",
		"scenario log-scan cold",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	if err := json.Unmarshal(blob, &metrics); err != nil {
		t.Fatalf("BENCH_compile.json does not parse: %v", err)
	}
	for _, key := range []string{
		"compile_fleet_cold_ms", "compile_fleet_parallel_ms",
		"compile_fleet_delta_add_ms", "speedup_compile_parallel",
		"speedup_compile_delta",
		"compile_scenario_log-scan_cold_ms", "compile_scenario_dlp-pii_delta_ms",
		"compile_scenario_malware-short_cold_ms",
	} {
		if metrics[key] <= 0 {
			t.Fatalf("%s not measured: %v", key, metrics)
		}
	}
	if metrics["compile_patterns"] != 600 || metrics["compile_cores"] < 1 {
		t.Fatalf("compile meta rows wrong: %v", metrics)
	}
	// Gating shape: fleet latencies banked (inverted), scenario rows
	// informational, meta rows meta.
	for _, key := range []string{"compile_fleet_cold_ms", "compile_fleet_delta_add_ms"} {
		if !gatedMetric(key) || !lowerIsBetter(key) {
			t.Fatalf("%s must be gated lower-is-better", key)
		}
	}
	if gatedMetric("compile_scenario_log-scan_cold_ms") {
		t.Fatal("scenario compile rows must stay informational")
	}
	if gatedMetric("speedup_compile_parallel") {
		t.Fatal("parallel speedup must gate via its conditional floor, not the relative gate")
	}
	if !gatedMetric("speedup_compile_delta") {
		t.Fatal("delta speedup must be gated")
	}
	if !metaMetric("compile_cores") || !metaMetric("compile_patterns") {
		t.Fatal("compile meta rows must be meta fields")
	}
}

func TestPaperDFAShape(t *testing.T) {
	d, err := paperDFA()
	if err != nil {
		t.Fatal(err)
	}
	if n := d.NumStates(); n < 1400 || n > 1520 {
		t.Fatalf("paper DFA has %d states, want ~1520", n)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunServerBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_server.json")
	// 1 MiB keeps the HTTP loops fast; the JSON schema and endpoint
	// coverage are what this test pins.
	err := run(&b, sections{server: true, serverBytes: 1 << 20, serverJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Server engine: cellmatchd end-to-end throughput",
		"/scan x32 clients (4 KiB payloads, median of 5)",
		"/scan over 5 rounds, min-max:",
		"p99 over all 20 requests (256 KiB payloads)",
		"p99 over all 320 requests (4 KiB payloads)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res ServerBench
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_server.json does not parse: %v", err)
	}
	if res.InputBytes != 1<<20 || res.DictStates < 1400 || res.SmallScanPayloadBytes != 4<<10 {
		t.Fatalf("bench metadata wrong: %+v", res)
	}
	for name, v := range map[string]float64{
		"scan_MBps":        res.ScanMBps,
		"scan_reqps":       res.ScanReqPerSec,
		"small_scan_MBps":  res.SmallScanMBps,
		"small_scan_reqps": res.SmallScanReqPerSec,
		"stream_MBps":      res.StreamMBps,
		"scan_p50_ms":      res.ScanP50Ms,
		"scan_p99_ms":      res.ScanP99Ms,
		"small_p50_ms":     res.SmallScanP50Ms,
		"small_p99_ms":     res.SmallScanP99Ms,
	} {
		if v <= 0 {
			t.Fatalf("%s not measured: %+v", name, res)
		}
	}
	if res.ScanP99Ms < res.ScanP50Ms || res.SmallScanP99Ms < res.SmallScanP50Ms {
		t.Fatalf("percentiles not ordered: %+v", res)
	}
	// The tail-latency key rides the -checkbench server gate; p50 and
	// the small-payload rows stay informational.
	if !gatedMetric("server_scan_p99_ms") {
		t.Fatal("server_scan_p99_ms not gated by -checkbench")
	}
	for _, k := range []string{"server_scan_p50_ms", "small_scan_MBps", "server_small_scan_p50_ms", "server_small_scan_p99_ms"} {
		if gatedMetric(k) {
			t.Fatalf("informational key %s must not gate", k)
		}
	}
	if !metaMetric("small_scan_payload_bytes") {
		t.Fatal("small_scan_payload_bytes is a meta row")
	}
}

func TestParseFlagsOverload(t *testing.T) {
	var errOut strings.Builder
	cfg, err := parseFlags([]string{"-overload"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.overload || cfg.overloadClients != 16 || cfg.overloadInflight != 2 {
		t.Fatalf("overload defaults wrong: %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-overload", "-overloadclients", "8", "-overloadinflight", "3"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.overloadClients != 8 || cfg.overloadInflight != 3 {
		t.Fatalf("overload knobs wrong: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-overload", "-overloadclients", "2", "-overloadinflight", "2"}, &errOut); err == nil {
		t.Fatal("non-oversubscribing overload config accepted")
	}
}

// TestOverloadSmoke runs the CI load-shedding check in-process: it
// must pass on a healthy server and enforce oversubscription.
func TestOverloadSmoke(t *testing.T) {
	var b strings.Builder
	if err := runOverloadSmoke(&b, 8, 2); err != nil {
		t.Fatalf("overload smoke failed on a healthy server: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"== Overload smoke: 8 clients vs max-inflight=2 ==",
		"load-shedding contract held",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if err := runOverloadSmoke(&b, 2, 4); err == nil {
		t.Fatal("non-oversubscribing overload run accepted")
	}
}

func TestRunShardBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_shards.json")
	// 256 KiB of traffic keeps the five scan configurations fast; the
	// schema, the shard counts, and the tier selection are what this
	// test pins.
	err := run(&b, sections{shards: true, shardBytes: 256 << 10, shardJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Sharded engine: over-budget dictionary",
		"stt fallback (sharding disabled)",
		"sharded sequential (chunk-interleaved)",
		"best sharded vs stt fallback:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res ShardBench
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_shards.json does not parse: %v", err)
	}
	if res.Shards < 2 || res.DictStates < 5000 || res.ShardBudgetBytes != shardBenchBudget {
		t.Fatalf("bench metadata wrong: %+v", res)
	}
	if res.Sweep128KShards <= res.Shards || res.Sweep512KShards >= res.Shards {
		t.Fatalf("budget sweep shard counts not monotone: %+v", res)
	}
	for name, v := range map[string]float64{
		"stt_fallback": res.STTFallback,
		"sharded_seq":  res.ShardedSeq,
		"sharded_pool": res.ShardedPool,
		"speedup":      res.Speedup,
		"sweep_512k":   res.Sweep512KMBps,
		"sweep_128k":   res.Sweep128KMBps,
	} {
		if v <= 0 {
			t.Fatalf("%s not measured: %+v", name, res)
		}
	}
}

func TestRunFilterBenchJSON(t *testing.T) {
	var b strings.Builder
	path := filepath.Join(t.TempDir(), "BENCH_filter.json")
	// 256 KiB keeps the four scan configurations fast; the schema, the
	// filter coming up on the kernel, and the skip evidence are what
	// this test pins (the 2x floor is the CI gate's job, not a unit
	// test's — small inputs under-report the win).
	err := run(&b, sections{filter: true, filterBytes: 256 << 10, filterJSON: path})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== Skip-scan filter: long-pattern workload",
		"kernel, filter off (every byte)",
		"kernel + filter, sequential",
		"windows skipped:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res FilterBench
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_filter.json does not parse: %v", err)
	}
	if res.Patterns != 48 || res.MinPatternLen < 16 || res.Window != res.MinPatternLen {
		t.Fatalf("bench metadata wrong: %+v", res)
	}
	if res.SkippedPct < 50 {
		t.Fatalf("long-pattern workload skipped only %.1f%% of windows", res.SkippedPct)
	}
	for name, v := range map[string]float64{
		"kernel_unfiltered": res.KernelUnfiltered,
		"filtered_seq":      res.FilteredSeq,
		"filtered_pool":     res.FilteredPool,
		"speedup":           res.Speedup,
	} {
		if v <= 0 {
			t.Fatalf("%s not measured: %+v", name, res)
		}
	}
}

// spread reports the median with the range; an even count averages the
// middle pair.
func TestSpread(t *testing.T) {
	for _, c := range []struct {
		vals        []float64
		med, lo, hi float64
	}{
		{[]float64{4.9, 13.1, 3.6, 4.0, 5.2}, 4.9, 3.6, 13.1},
		{[]float64{2, 1}, 1.5, 1, 2},
		{[]float64{7}, 7, 7, 7},
	} {
		med, lo, hi := spread(c.vals)
		if med != c.med || lo != c.lo || hi != c.hi {
			t.Errorf("spread(%v) = %v, %v, %v, want %v, %v, %v", c.vals, med, lo, hi, c.med, c.lo, c.hi)
		}
	}
}
