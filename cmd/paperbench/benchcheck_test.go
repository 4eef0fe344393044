package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseBench = `{
  "input_bytes": 8388608,
  "dict_states": 1499,
  "stt_lookup_seq_MBps": 300,
  "kernel_seq_MBps": 600,
  "kernel_interleaved_lanes_MBps": 1000,
  "parallel_4workers_kernel_MBps": 550,
  "speedup_kernel_vs_stt_lookup": 3.3
}`

func TestBenchCheckPasses(t *testing.T) {
	base := writeBench(t, "base.json", baseBench)
	// 15% slower everywhere: inside the 20% gate.
	cand := writeBench(t, "cand.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 1499,
	  "stt_lookup_seq_MBps": 100,
	  "kernel_seq_MBps": 510,
	  "kernel_interleaved_lanes_MBps": 850,
	  "parallel_4workers_kernel_MBps": 468,
	  "speedup_kernel_vs_stt_lookup": 2.81
	}`)
	var b strings.Builder
	if err := runBenchCheck(&b, base, cand, 0.20); err != nil {
		t.Fatalf("within-gate candidate failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"| metric | baseline | candidate |",
		"kernel_seq_MBps | 600.00 | 510.00 | -15.0% | ok",
		"All gated metrics within 20% of baseline.",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// The stt comparator collapsed by 3x and that must NOT gate.
	if strings.Contains(out, "FAIL") {
		t.Fatalf("ungated metric failed the gate:\n%s", out)
	}
}

func TestBenchCheckCatchesKernelRegression(t *testing.T) {
	base := writeBench(t, "base.json", baseBench)
	cand := writeBench(t, "cand.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 1499,
	  "stt_lookup_seq_MBps": 300,
	  "kernel_seq_MBps": 400,
	  "kernel_interleaved_lanes_MBps": 1000,
	  "parallel_4workers_kernel_MBps": 550,
	  "speedup_kernel_vs_stt_lookup": 3.3
	}`)
	var b strings.Builder
	err := runBenchCheck(&b, base, cand, 0.20)
	if err == nil {
		t.Fatalf("33%% kernel drop passed the gate:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "kernel_seq_MBps") {
		t.Fatalf("regression not attributed: %v", err)
	}
	if !strings.Contains(b.String(), "FAIL") {
		t.Fatalf("table does not flag the failure:\n%s", b.String())
	}
}

func TestBenchCheckCatchesSpeedupRegression(t *testing.T) {
	base := writeBench(t, "base.json", baseBench)
	// Raw kernel numbers fine, but the speedup ratio fell below
	// baseline - 20% (e.g. the stt path got faster relative to a
	// stagnant kernel — still a banked-ratio regression).
	cand := writeBench(t, "cand.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 1499,
	  "stt_lookup_seq_MBps": 500,
	  "kernel_seq_MBps": 600,
	  "kernel_interleaved_lanes_MBps": 1000,
	  "parallel_4workers_kernel_MBps": 550,
	  "speedup_kernel_vs_stt_lookup": 2.0
	}`)
	var b strings.Builder
	if err := runBenchCheck(&b, base, cand, 0.20); err == nil ||
		!strings.Contains(err.Error(), "speedup_kernel_vs_stt_lookup") {
		t.Fatalf("speedup regression not caught: %v\n%s", err, b.String())
	}
}

func TestBenchCheckMissingMetricFails(t *testing.T) {
	base := writeBench(t, "base.json", baseBench)
	cand := writeBench(t, "cand.json", `{"input_bytes": 8388608, "kernel_seq_MBps": 600}`)
	var b strings.Builder
	if err := runBenchCheck(&b, base, cand, 0.20); err == nil {
		t.Fatalf("candidate missing gated metrics passed:\n%s", b.String())
	}
	// A missing informational comparator is a schema change, not a
	// regression: dropping stt_lookup must still pass.
	cand2 := writeBench(t, "cand2.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 1499,
	  "kernel_seq_MBps": 600,
	  "kernel_interleaved_lanes_MBps": 1000,
	  "parallel_4workers_kernel_MBps": 550,
	  "speedup_kernel_vs_stt_lookup": 3.3
	}`)
	var b2 strings.Builder
	if err := runBenchCheck(&b2, base, cand2, 0.20); err != nil {
		t.Fatalf("missing ungated metric failed the gate: %v\n%s", err, b2.String())
	}
}

func TestBenchCheckBadInputs(t *testing.T) {
	base := writeBench(t, "base.json", baseBench)
	var b strings.Builder
	if err := runBenchCheck(&b, base, "/no/such/file.json", 0.20); err == nil {
		t.Fatal("missing candidate accepted")
	}
	garbage := writeBench(t, "garbage.json", "not json at all")
	if err := runBenchCheck(&b, base, garbage, 0.20); err == nil {
		t.Fatal("garbage candidate accepted")
	}
	cand := writeBench(t, "cand.json", baseBench)
	if err := runBenchCheck(&b, base, cand, 1.5); err == nil {
		t.Fatal("nonsense maxdrop accepted")
	}
}

const shardBench = `{
  "input_bytes": 8388608,
  "dict_states": 5997,
  "shard_budget_bytes": 262144,
  "shards": 4,
  "stt_fallback_seq_MBps": 50,
  "sharded_seq_MBps": 115,
  "sharded_pool_MBps": 118,
  "speedup_sharded_vs_stt": 2.3,
  "sweep_128k_shards": 7,
  "sweep_128k_seq_MBps": 80
}`

const serverBenchJSON = `{
  "input_bytes": 16777216,
  "scan_payload_bytes": 262144,
  "scan_MBps": 200,
  "small_scan_MBps": 13,
  "stream_MBps": 347,
  "server_scan_p50_ms": 8,
  "server_scan_p99_ms": 12,
  "server_small_scan_p99_ms": 40
}`

// Multi-pair gating: every pair prints its own table; regressions in
// any pair fail, and informational rows (small-payload /scan, sweep)
// never gate.
func TestBenchCheckMultiPair(t *testing.T) {
	kb := writeBench(t, "kernel.json", baseBench)
	sb := writeBench(t, "shards.json", shardBench)
	vb := writeBench(t, "server.json", serverBenchJSON)

	var b strings.Builder
	ok := kb + "," + vb + "," + sb
	if err := runBenchCheckFiles(&b, ok, ok, 0.20); err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, b.String())
	}
	for _, want := range []string{"kernel.json", "server.json", "shards.json"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("per-pair heading %q missing:\n%s", want, b.String())
		}
	}

	// Mismatched list lengths must be rejected.
	if err := runBenchCheckFiles(&b, kb+","+sb, kb, 0.20); err == nil {
		t.Fatal("mismatched pair counts accepted")
	}

	// A sharded regression in the third pair fails the whole gate; the
	// collapsed small-payload row (ungated) does not.
	badShards := writeBench(t, "bad_shards.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 5997,
	  "shard_budget_bytes": 262144,
	  "shards": 4,
	  "stt_fallback_seq_MBps": 50,
	  "sharded_seq_MBps": 60,
	  "sharded_pool_MBps": 118,
	  "speedup_sharded_vs_stt": 2.3,
	  "sweep_128k_shards": 7,
	  "sweep_128k_seq_MBps": 10
	}`)
	badServer := writeBench(t, "bad_server.json", `{
	  "input_bytes": 16777216,
	  "scan_payload_bytes": 262144,
	  "scan_MBps": 200,
	  "small_scan_MBps": 1,
	  "stream_MBps": 347
	}`)
	var b2 strings.Builder
	err := runBenchCheckFiles(&b2, kb+","+vb+","+sb, kb+","+badServer+","+badShards, 0.20)
	if err == nil {
		t.Fatalf("sharded regression passed the multi-pair gate:\n%s", b2.String())
	}
	if !strings.Contains(err.Error(), "sharded_seq_MBps") {
		t.Fatalf("regression not attributed to the sharded metric: %v", err)
	}
	if strings.Contains(err.Error(), "small_scan_MBps") || strings.Contains(err.Error(), "sweep_128k") {
		t.Fatalf("informational row gated: %v", err)
	}
}

// The ratio metrics carry absolute floors on top of the relative gate:
// a sharded speedup of 1.9x is within 20% of the 2.3x baseline but
// below the banked 2x acceptance number, and must still fail.
func TestBenchCheckAbsoluteSpeedupFloor(t *testing.T) {
	sb := writeBench(t, "shards.json", shardBench)
	cand := writeBench(t, "cand.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 5997,
	  "shard_budget_bytes": 262144,
	  "shards": 4,
	  "stt_fallback_seq_MBps": 55,
	  "sharded_seq_MBps": 105,
	  "sharded_pool_MBps": 108,
	  "speedup_sharded_vs_stt": 1.9,
	  "sweep_128k_shards": 7,
	  "sweep_128k_seq_MBps": 80
	}`)
	var b strings.Builder
	err := runBenchCheck(&b, sb, cand, 0.20)
	if err == nil {
		t.Fatalf("1.9x sharded speedup passed the 2x floor:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "absolute 2.0x floor") {
		t.Fatalf("floor breach not attributed: %v", err)
	}
}

// speedup_filter_vs_kernel divides by the unfiltered kernel, so a
// faster kernel beside an unchanged filter lowers it: that must pass,
// while the 2x floor and the filter's own rows still gate.
func TestBenchCheckFilterRatioFollowsKernel(t *testing.T) {
	base := writeBench(t, "filter.json", `{
	  "input_bytes": 16777216,
	  "filter_off_kernel_MBps": 900,
	  "filter_seq_MBps": 2900,
	  "filter_parallel4_MBps": 3700,
	  "speedup_filter_vs_kernel": 3.2
	}`)
	fasterKernel := writeBench(t, "cand.json", `{
	  "input_bytes": 16777216,
	  "filter_off_kernel_MBps": 1600,
	  "filter_seq_MBps": 2900,
	  "filter_parallel4_MBps": 3700,
	  "speedup_filter_vs_kernel": 1.8125
	}`)
	var b strings.Builder
	err := runBenchCheck(&b, base, fasterKernel, 0.20)
	if err == nil || !strings.Contains(err.Error(), "1.81 below the absolute 2.0x floor") || strings.Contains(err.Error(), "3.20 ->") {
		t.Fatalf("1.81x must fail the 2x floor only, not the relative gate: %v\n%s", err, b.String())
	}
	fasterKernel = writeBench(t, "cand2.json", `{
	  "input_bytes": 16777216,
	  "filter_off_kernel_MBps": 1400,
	  "filter_seq_MBps": 2900,
	  "filter_parallel4_MBps": 3700,
	  "speedup_filter_vs_kernel": 2.07
	}`)
	b.Reset()
	if err := runBenchCheck(&b, base, fasterKernel, 0.20); err != nil {
		t.Fatalf("a faster kernel with an unchanged filter failed the gate: %v\n%s", err, b.String())
	}
	slowerFilter := writeBench(t, "cand3.json", `{
	  "input_bytes": 16777216,
	  "filter_off_kernel_MBps": 900,
	  "filter_seq_MBps": 2000,
	  "filter_parallel4_MBps": 3700,
	  "speedup_filter_vs_kernel": 2.2
	}`)
	b.Reset()
	if err := runBenchCheck(&b, base, slowerFilter, 0.20); err == nil || !strings.Contains(err.Error(), "filter_seq_MBps") {
		t.Fatalf("a slower filter passed the gate: %v\n%s", err, b.String())
	}
}

// A baseline that dropped the speedup metric must not disable its
// absolute floor: the candidate-only row is still checked.
func TestBenchCheckFloorSurvivesMissingBaselineKey(t *testing.T) {
	noSpeedup := writeBench(t, "base.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 5997,
	  "sharded_seq_MBps": 105
	}`)
	cand := writeBench(t, "cand.json", `{
	  "input_bytes": 8388608,
	  "dict_states": 5997,
	  "sharded_seq_MBps": 105,
	  "speedup_sharded_vs_stt": 1.4
	}`)
	var b strings.Builder
	err := runBenchCheck(&b, noSpeedup, cand, 0.20)
	if err == nil {
		t.Fatalf("floor skipped for a candidate-only metric:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "absolute 2.0x floor (no baseline)") {
		t.Fatalf("floor breach not attributed: %v", err)
	}
	if !strings.Contains(b.String(), "(new)") {
		t.Fatalf("candidate-only row not shown:\n%s", b.String())
	}
}

// A /scan throughput collapse must gate the server pair.
func TestBenchCheckCatchesServerRegression(t *testing.T) {
	vb := writeBench(t, "server.json", serverBenchJSON)
	bad := writeBench(t, "bad.json", `{
	  "input_bytes": 16777216,
	  "scan_payload_bytes": 262144,
	  "scan_MBps": 100,
	  "small_scan_MBps": 13,
	  "stream_MBps": 347
	}`)
	var b strings.Builder
	if err := runBenchCheck(&b, vb, bad, 0.20); err == nil ||
		!strings.Contains(err.Error(), "scan_MBps") {
		t.Fatalf("server regression not caught: %v\n%s", err, b.String())
	}
}

// The latency rows gate in the inverted direction: p99 going UP past
// baseline*(1+maxdrop) regresses; going down (faster) never does, and
// the informational p50/small-payload rows never gate at all.
func TestBenchCheckLatencyGateInverted(t *testing.T) {
	vb := writeBench(t, "server.json", serverBenchJSON)
	mk := func(name string, p50, p99, smallP99 float64) string {
		return writeBench(t, name, fmt.Sprintf(`{
		  "input_bytes": 16777216,
		  "scan_payload_bytes": 262144,
		  "scan_MBps": 200,
		  "small_scan_MBps": 13,
		  "stream_MBps": 347,
		  "server_scan_p50_ms": %g,
		  "server_scan_p99_ms": %g,
		  "server_small_scan_p99_ms": %g
		}`, p50, p99, smallP99))
	}

	// +10% tail latency: inside the 20% ceiling.
	var b strings.Builder
	if err := runBenchCheck(&b, vb, mk("ok.json", 8, 13.2, 40), 0.20); err != nil {
		t.Fatalf("within-ceiling latency failed: %v\n%s", err, b.String())
	}
	// 2x faster p99 is an improvement, not a drop below a floor.
	b.Reset()
	if err := runBenchCheck(&b, vb, mk("fast.json", 4, 6, 20), 0.20); err != nil {
		t.Fatalf("latency improvement failed the gate: %v\n%s", err, b.String())
	}
	// +50% tail latency must fail, attributed to the p99 key.
	b.Reset()
	err := runBenchCheck(&b, vb, mk("slow.json", 8, 18, 40), 0.20)
	if err == nil || !strings.Contains(err.Error(), "server_scan_p99_ms") {
		t.Fatalf("tail-latency regression not caught: %v\n%s", err, b.String())
	}
	if !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("inverted gate not reported as a ceiling: %v", err)
	}
	// Informational latency rows (p50, small-payload p99) ballooning never gate.
	b.Reset()
	if err := runBenchCheck(&b, vb, mk("noise.json", 80, 12, 400), 0.20); err != nil {
		t.Fatalf("informational latency rows gated: %v\n%s", err, b.String())
	}
}

const compileBench = `{
  "compile_cores": 1,
  "compile_patterns": 50000,
  "compile_fleet_cold_ms": 900,
  "compile_fleet_parallel_ms": 910,
  "compile_fleet_delta_add_ms": 170,
  "speedup_compile_parallel": 0.99,
  "speedup_compile_delta": 5.3,
  "compile_scenario_log-scan_cold_ms": 0.7,
  "compile_scenario_log-scan_delta_ms": 0.8
}`

// The compile pair gates the fleet latencies in the inverted (_ms)
// direction, gates the delta speedup with its 2x floor, and keeps the
// microsecond-scale scenario rows informational.
func TestBenchCheckCompileGating(t *testing.T) {
	cb := writeBench(t, "compile.json", compileBench)

	// Self-comparison passes; a 1-core parallel "speedup" of ~1x does
	// not trip any floor (the 2x floor arms at >= 4 cores).
	var b strings.Builder
	if err := runBenchCheck(&b, cb, cb, 0.20); err != nil {
		t.Fatalf("compile self-comparison failed: %v\n%s", err, b.String())
	}

	// Fleet delta latency ballooning past the ceiling fails; a
	// scenario row ballooning does not (informational evidence).
	slow := writeBench(t, "slow.json", `{
	  "compile_cores": 1,
	  "compile_patterns": 50000,
	  "compile_fleet_cold_ms": 900,
	  "compile_fleet_parallel_ms": 910,
	  "compile_fleet_delta_add_ms": 500,
	  "speedup_compile_parallel": 0.99,
	  "speedup_compile_delta": 2.1,
	  "compile_scenario_log-scan_cold_ms": 70,
	  "compile_scenario_log-scan_delta_ms": 80
	}`)
	b.Reset()
	err := runBenchCheck(&b, cb, slow, 0.20)
	if err == nil || !strings.Contains(err.Error(), "compile_fleet_delta_add_ms") {
		t.Fatalf("delta latency regression not caught: %v\n%s", err, b.String())
	}
	if strings.Contains(err.Error(), "compile_scenario_") {
		t.Fatalf("informational scenario compile row gated: %v", err)
	}

	// Delta speedup below the 2x absolute floor fails even when within
	// the relative drop of a high baseline.
	lowDelta := writeBench(t, "lowdelta.json", `{
	  "compile_cores": 1,
	  "compile_patterns": 50000,
	  "compile_fleet_cold_ms": 900,
	  "compile_fleet_parallel_ms": 910,
	  "compile_fleet_delta_add_ms": 170,
	  "speedup_compile_parallel": 0.99,
	  "speedup_compile_delta": 1.8
	}`)
	highBase := writeBench(t, "highbase.json", `{
	  "compile_cores": 1,
	  "compile_patterns": 50000,
	  "compile_fleet_cold_ms": 900,
	  "compile_fleet_parallel_ms": 910,
	  "compile_fleet_delta_add_ms": 170,
	  "speedup_compile_parallel": 0.99,
	  "speedup_compile_delta": 2.0
	}`)
	b.Reset()
	err = runBenchCheck(&b, highBase, lowDelta, 0.20)
	if err == nil || !strings.Contains(err.Error(), "speedup_compile_delta") {
		t.Fatalf("delta speedup floor breach not caught: %v\n%s", err, b.String())
	}
}

// The parallel-compile floor is conditional on the candidate host: at
// >= 4 cores a sub-2x speedup fails, below that it is informational
// (a 1-core runner measures ~1x by construction).
func TestBenchCheckParallelFloorConditionalOnCores(t *testing.T) {
	cb := writeBench(t, "compile.json", compileBench)
	mk := func(name string, cores, speedup float64) string {
		return writeBench(t, name, fmt.Sprintf(`{
		  "compile_cores": %g,
		  "compile_patterns": 50000,
		  "compile_fleet_cold_ms": 900,
		  "compile_fleet_parallel_ms": 450,
		  "compile_fleet_delta_add_ms": 170,
		  "speedup_compile_parallel": %g,
		  "speedup_compile_delta": 5.3
		}`, cores, speedup))
	}
	var b strings.Builder
	// 2 cores at 1.4x: floor disarmed, passes.
	if err := runBenchCheck(&b, cb, mk("c2.json", 2, 1.4), 0.20); err != nil {
		t.Fatalf("2-core sub-2x speedup gated: %v\n%s", err, b.String())
	}
	// 8 cores at 1.4x: floor armed, fails.
	b.Reset()
	err := runBenchCheck(&b, cb, mk("c8.json", 8, 1.4), 0.20)
	if err == nil || !strings.Contains(err.Error(), "speedup_compile_parallel") {
		t.Fatalf("8-core sub-2x speedup passed: %v\n%s", err, b.String())
	}
	// 8 cores at 3.1x: floor armed, passes.
	b.Reset()
	if err := runBenchCheck(&b, cb, mk("c8ok.json", 8, 3.1), 0.20); err != nil {
		t.Fatalf("8-core 3.1x speedup gated: %v\n%s", err, b.String())
	}
	// The ratio must not be relatively gated: 3.1x vs a 0.99x baseline
	// is a "rise", and a later 2.2x against that would be a >20% drop —
	// but only the floor applies.
	high := mk("high.json", 8, 3.1)
	b.Reset()
	if err := runBenchCheck(&b, high, mk("c8later.json", 8, 2.2), 0.20); err != nil {
		t.Fatalf("parallel speedup relatively gated: %v\n%s", err, b.String())
	}
	if !metaMetric("compile_cores") || !metaMetric("compile_patterns") {
		t.Fatal("compile meta rows must be meta fields")
	}
}

// The committed repo baselines themselves must pass against themselves
// — keeps the gate runnable from a clean checkout.
func TestBenchCheckRepoBaselineSelfConsistent(t *testing.T) {
	for _, name := range []string{
		"BENCH_kernel.json", "BENCH_server.json", "BENCH_shards.json",
		"BENCH_filter.json", "BENCH_scenarios.json", "BENCH_compile.json",
	} {
		t.Run(name, func(t *testing.T) {
			repoBaseline := filepath.Join("..", "..", name)
			if _, err := os.Stat(repoBaseline); err != nil {
				t.Skipf("no repo baseline: %v", err)
			}
			var b strings.Builder
			if err := runBenchCheck(&b, repoBaseline, repoBaseline, 0.20); err != nil {
				t.Fatalf("repo baseline %s fails against itself: %v\n%s", name, err, b.String())
			}
		})
	}
}
