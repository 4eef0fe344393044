package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Bench-regression gate: compare freshly measured BENCH_*.json files
// against their committed baselines instead of hard-coded speedup
// floors. CI runs
//
//	paperbench -checkbench \
//	  -baseline BENCH_kernel.json,BENCH_server.json,BENCH_shards.json \
//	  -candidate new_kernel.json,new_server.json,new_shards.json
//
// and fails the job when any gated metric drops more than maxDrop
// (default 20%) below its baseline — the kernel rows and
// kernel-vs-stt speedup, the serving layer's /scan and /scan/stream
// throughput, and the sharded tier's throughput and sharded-vs-stt
// speedup. The before/after tables are markdown so the CI job can
// pipe them straight into the GitHub step summary.
//
// Absolute MB/s floors are only meaningful when baseline and candidate
// ran on comparable hardware: re-record the baseline
// (paperbench -kernel -benchjson BENCH_kernel.json) whenever the CI
// runner class changes. The speedup ratio is the machine-portable
// gate; the absolute rows catch same-hardware regressions the ratio
// can mask (e.g. both paths slowing down together).

// gatedMetric reports whether a BENCH_*.json field is enforced. The
// stt_* comparator rows are informational (they measure the old path,
// whose speed we do not defend), as are the serving layer's
// small-payload /scan rows and the sharded budget sweep; the kernel
// rows, the speedup ratios, the /scan and /scan/stream throughput, and
// the sharded scan schedules are the banked performance. Metric names are globally unique across the
// BENCH files, so one predicate serves every pair.
func gatedMetric(key string) bool {
	switch {
	case strings.HasPrefix(key, "kernel_"):
		return true
	case strings.HasPrefix(key, "stride2_"):
		return true
	case key == "parallel_4workers_kernel_MBps" || key == "parallel_4workers_kernel_serial_MBps":
		return true
	case key == "speedup_kernel_vs_stt_lookup":
		return true
	case key == "speedup_stride2_vs_kernel":
		return true
	case strings.HasPrefix(key, "compressed_"):
		// compressed_dict_states is a meta row; runBenchCheck consults
		// metaMetric before this predicate, so only the throughput and
		// speedup rows land here. stt_compressed_dict_MBps stays
		// informational with the rest of the stt_* comparators.
		return true
	case key == "speedup_compressed_vs_stt":
		return true
	case key == "scan_MBps" || key == "stream_MBps":
		return true
	case key == "server_scan_p99_ms":
		// Tail latency of the closed-loop /scan rounds (pooled over every
		// request) is banked alongside their throughput; the p50 and
		// small-payload latency rows stay informational (p50 is
		// scheduling noise at this scale).
		return true
	case key == "sharded_seq_MBps" || key == "sharded_pool_MBps":
		return true
	case key == "speedup_sharded_vs_stt":
		return true
	case key == "filter_seq_MBps" || key == "filter_parallel4_MBps":
		// speedup_filter_vs_kernel is not gated against its baseline:
		// its denominator is the unfiltered kernel, so a faster kernel
		// would read as a filter regression. Its absolute 2x floor
		// (speedupFloors) still applies, and the filter's own speed is
		// gated by these two rows.
		return true
	case strings.HasPrefix(key, "scenario_") && strings.HasSuffix(key, "_MBps"):
		// Every scenario's throughput row (including the served regex
		// row) is banked; the scenario_*_skip_pct evidence rows stay
		// informational — skip ratio is workload shape, not speed.
		return true
	case strings.HasPrefix(key, "compile_fleet_") && strings.HasSuffix(key, "_ms"):
		// The fleet-scale compile latencies are banked (lower is
		// better); the compile_scenario_* rows are microsecond-scale
		// evidence, too noisy for a one-shot CI gate. The parallel
		// speedup ratio is gated by its conditional floor alone (see
		// floorFor) — its baseline value depends on the recording
		// host's core count, which the relative gate cannot see.
		return true
	case key == "speedup_compile_delta":
		return true
	}
	return false
}

// speedupFloors are absolute minimums enforced on top of the
// baseline-relative gate, for the ratio metrics only: ratios compare
// two engines on the same machine and traffic, so unlike the raw MB/s
// rows they are machine-portable and can carry the repo's banked
// acceptance numbers — the kernel's >= 1.5x over stt.Lookup and the
// sharded tier's >= 2x over the stt fallback — without re-recording
// when the runner class changes.
var speedupFloors = map[string]float64{
	"speedup_kernel_vs_stt_lookup": 1.5,
	"speedup_sharded_vs_stt":       2.0,
	// The skip-scan front-end must stay >= 2x over the unfiltered
	// kernel on the long-pattern workload (the ISSUE 5 acceptance bar).
	"speedup_filter_vs_kernel": 2.0,
	// The 2-byte-stride rung must stay >= 1.7x over the 1-byte kernel
	// single-stream (the ISSUE 8 acceptance bar).
	"speedup_stride2_vs_kernel": 1.7,
	// The compressed-row rung must stay >= 2x over the stt fallback on
	// the over-dense-budget dictionary it exists for (the ISSUE 10
	// acceptance bar).
	"speedup_compressed_vs_stt": 2.0,
	// Patching a 64-pattern append into a fleet-scale matcher must stay
	// >= 2x faster than the cold rebuild of the same dictionary. The
	// patch re-runs all the deterministic planning (partition, shard
	// plan) and rebuilds only the trailing units, so the ratio is
	// planning-bound, not unit-bound; both sides run sequentially, so
	// it is machine-portable.
	"speedup_compile_delta": 2.0,
}

// floorFor resolves the absolute floor for a metric, if any: the
// static speedupFloors table, plus the one conditional entry — the
// parallel-compile speedup can only express itself on a multi-core
// host, so its >= 2x floor arms only when the candidate's
// compile_cores meta row reports at least 4 cores (a 1-2 core runner
// measures ~1x by construction, and gating that would only gate the
// runner shape).
func floorFor(key string, cand map[string]float64) (float64, bool) {
	if key == "speedup_compile_parallel" {
		if cand["compile_cores"] >= 4 {
			return 2.0, true
		}
		return 0, false
	}
	f, ok := speedupFloors[key]
	return f, ok
}

// lowerIsBetter reports metrics gated in the inverted direction:
// latency rows (the *_ms fields) regress by going UP, so the gate
// fails when the candidate exceeds baseline*(1+maxDrop) instead of
// falling below baseline*(1-maxDrop).
func lowerIsBetter(key string) bool {
	return strings.HasSuffix(key, "_ms")
}

// metaMetric reports fields that describe the run, not a measurement.
func metaMetric(key string) bool {
	switch key {
	case "input_bytes", "dict_states", "compressed_dict_states",
		"scan_payload_bytes", "small_scan_payload_bytes", "shard_budget_bytes",
		"shards", "filter_patterns", "filter_min_pattern_len",
		"filter_window", "scenarios", "compile_cores", "compile_patterns":
		return true
	}
	return strings.HasSuffix(key, "_shards")
}

func loadBenchJSON(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no numeric metrics", path)
	}
	return out, nil
}

// runBenchCheckFiles splits comma-separated baseline/candidate lists
// into pairs and gates each; every pair's table is printed, and the
// error aggregates regressions across all of them.
func runBenchCheckFiles(w io.Writer, baselines, candidates string, maxDrop float64) error {
	bs := strings.Split(baselines, ",")
	cs := strings.Split(candidates, ",")
	if len(bs) != len(cs) {
		return fmt.Errorf("benchcheck: %d baseline(s) but %d candidate(s)", len(bs), len(cs))
	}
	var errs []string
	for i := range bs {
		if err := runBenchCheck(w, strings.TrimSpace(bs[i]), strings.TrimSpace(cs[i]), maxDrop); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// runBenchCheck prints one baseline-vs-candidate markdown table and
// returns an error naming every gated metric that regressed beyond
// maxDrop (a fraction: 0.2 = 20%).
func runBenchCheck(w io.Writer, baselinePath, candidatePath string, maxDrop float64) error {
	if maxDrop <= 0 || maxDrop >= 1 {
		return fmt.Errorf("benchcheck: maxdrop %v out of (0,1)", maxDrop)
	}
	base, err := loadBenchJSON(baselinePath)
	if err != nil {
		return err
	}
	cand, err := loadBenchJSON(candidatePath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Fprintf(w, "## Bench regression gate: %s (max drop %.0f%%)\n\n", baselinePath, maxDrop*100)
	fmt.Fprintf(w, "| metric | baseline | candidate | delta | gate |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---|\n")
	var regressions []string
	for _, k := range keys {
		b := base[k]
		c, ok := cand[k]
		if metaMetric(k) {
			fmt.Fprintf(w, "| %s | %.0f | %.0f | | |\n", k, b, c)
			continue
		}
		if !ok {
			// Only gated metrics are required; a dropped informational
			// comparator row is a schema change, not a regression.
			if gatedMetric(k) {
				regressions = append(regressions, fmt.Sprintf("%s: missing from candidate", k))
				fmt.Fprintf(w, "| %s | %.2f | (missing) | | FAIL |\n", k, b)
			} else {
				fmt.Fprintf(w, "| %s | %.2f | (missing) | | |\n", k, b)
			}
			continue
		}
		delta := 0.0
		if b != 0 {
			delta = (c - b) / b * 100
		}
		gate := ""
		if gatedMetric(k) {
			gate = "ok"
			if lowerIsBetter(k) {
				if c > b*(1+maxDrop) {
					gate = "FAIL"
					regressions = append(regressions,
						fmt.Sprintf("%s: %.2f -> %.2f (%+.1f%%, ceiling %.2f)", k, b, c, delta, b*(1+maxDrop)))
				}
			} else if c < b*(1-maxDrop) {
				gate = "FAIL"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.2f -> %.2f (%.1f%%, floor %.2f)", k, b, c, delta, b*(1-maxDrop)))
			}
		}
		// Absolute floors apply independently of the relative gate: a
		// ratio can carry a floor without a baseline-relative check
		// (speedup_compile_parallel's is conditional on the host).
		if floor, has := floorFor(k, cand); has && gate != "FAIL" {
			if c < floor {
				gate = "FAIL"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.2f below the absolute %.1fx floor", k, c, floor))
			} else if gate == "" {
				gate = "ok"
			}
		}
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %+.1f%% | %s |\n", k, b, c, delta, gate)
	}
	// Candidate-only keys: a baseline that dropped (or renamed) a
	// metric must not silently skip it — new rows are shown, and the
	// absolute speedup floors are enforced even without a baseline
	// value to compare against.
	extras := make([]string, 0)
	for k := range cand {
		if _, ok := base[k]; !ok {
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		c := cand[k]
		if metaMetric(k) {
			fmt.Fprintf(w, "| %s | (new) | %.0f | | |\n", k, c)
			continue
		}
		gate := ""
		if gatedMetric(k) {
			gate = "ok"
		}
		if floor, has := floorFor(k, cand); has {
			if c < floor {
				gate = "FAIL"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.2f below the absolute %.1fx floor (no baseline)", k, c, floor))
			} else {
				gate = "ok"
			}
		}
		fmt.Fprintf(w, "| %s | (new) | %.2f | | %s |\n", k, c, gate)
	}
	fmt.Fprintln(w)
	if len(regressions) > 0 {
		fmt.Fprintf(w, "**%d gated metric(s) regressed beyond %.0f%%.**\n", len(regressions), maxDrop*100)
		return fmt.Errorf("benchcheck %s: %d regression(s): %s",
			baselinePath, len(regressions), strings.Join(regressions, "; "))
	}
	fmt.Fprintf(w, "All gated metrics within %.0f%% of baseline.\n", maxDrop*100)
	return nil
}
