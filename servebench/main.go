// Command servebench is the served-path benchmark. In one process it
// stands up cellmatchd's serving stack (registry + server.New behind a
// loopback HTTP listener, default daemon options), drives one named
// workload from at most two closed-loop client connections, checks
// every reply against a reference match list computed at set-up, and
// prints the end-to-end metrics. With --trace 1 it instead times the
// handler and replays each request's payload through the public
// functions of every layer (core, parallel, filter, kernel, server
// encode, compile and reload phases) to print the per-layer metrics.
//
//	bash servebench/run.sh --workload nids-bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// nonzero when any reply or replayed call disagrees with the
// reference. LAYERS.md says which end-to-end metric and workload each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// windowSlices is how many back-to-back slices the measured window of
// an untraced run is cut into.
const windowSlices = 10

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	short    bool   // fewer repetitions (tests)
	out      string // scratch files and the span dump
}

// knobs are the repetition counts; short mode shrinks them.
type knobs struct {
	setupReps  int           // at least this many set-ups...
	setupFor   time.Duration // ...and until this much time has passed
	warm       time.Duration
	probeCount int
	samples    int
	phaseReps  int
}

// window is the measured time of one run.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c config) knobs() knobs {
	k := knobs{setupReps: 21, setupFor: 2 * time.Second, warm: 500 * time.Millisecond, probeCount: reloadProbe,
		samples: 200, phaseReps: 5}
	if c.short {
		k = knobs{setupReps: 2, warm: 50 * time.Millisecond, probeCount: windowSlices,
			samples: 10, phaseReps: 2}
	}
	if c.trace == 1 {
		k.setupReps, k.setupFor = 1, 0
	}
	return k
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", runSeconds, "measured seconds")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&c.short, "short", false, "fewer repetitions")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "servebench"), "directory for scratch files and spans")
	desc := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		if err := writeDescribe(stdout); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	if c.seconds <= 0 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "servebench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	w, err := lookup(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	res, err := bench(c, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload and returns the result line.
func bench(c config, w spec, out io.Writer) (result, error) {
	k := c.knobs()
	if w.reloadEvery > 0 && c.window()/windowSlices <= w.reloadEvery {
		// Each slice must span at least one scheduled reload.
		return result{}, fmt.Errorf("%s reloads every %v, so it needs -seconds %d or more",
			w.name, w.reloadEvery, int(w.reloadEvery*windowSlices/time.Second)+1)
	}
	in, err := w.gen(c.seed)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(c.out, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	basePath := filepath.Join(work, "base.dict")
	if err := os.WriteFile(basePath, dictFile(in.base), 0o644); err != nil {
		return result{}, err
	}
	var reloadPaths [2]string
	for i, pats := range in.reloads {
		reloadPaths[i] = filepath.Join(work, fmt.Sprintf("reload-%c.dict", 'a'+i))
		if err := os.WriteFile(reloadPaths[i], dictFile(pats), 0o644); err != nil {
			return result{}, err
		}
	}

	meta := hostMeta()
	meta = append(meta,
		[2]string{"workload", w.name},
		[2]string{"seed", fmt.Sprint(c.seed)},
		[2]string{"dictionary_sha256", digest(dictFile(in.base))},
		[2]string{"reload_a_dictionary_sha256", digest(dictFile(in.reloads[0]))},
		[2]string{"reload_b_dictionary_sha256", digest(dictFile(in.reloads[1]))},
		[2]string{"corpus_sha256", digest(in.corpus)},
	)

	// Set-up, timed k.setupReps times or for k.setupFor, whichever
	// takes longer; the last stack serves the run.
	// heap_mb is the Go heap the stack holds: live heap after set-up
	// and a forced GC, minus the live heap before it.
	heap0 := liveHeap()
	var setups []float64
	var st *stack
	for start := time.Now(); st == nil; {
		t0 := time.Now()
		s, err := startStack(basePath, in.caseFold)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) < k.setupReps || time.Since(start) < k.setupFor {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	heapMB := float64(int64(liveHeap())-int64(heap0)) / 1e6

	ss, err := st.stats()
	if err != nil {
		return result{}, fmt.Errorf("/stats: %w", err)
	}
	d := ss.Dictionary
	meta = append(meta,
		[2]string{"rung", d.Engine},
		[2]string{"filter", fmt.Sprint(d.FilterEnabled)},
		[2]string{"stride", fmt.Sprint(d.Stride)},
		[2]string{"patterns", fmt.Sprint(d.Patterns)},
		[2]string{"states", fmt.Sprint(d.States)},
		[2]string{"pool_workers", fmt.Sprint(ss.PoolWorkers)},
		[2]string{"clients", fmt.Sprint(w.scanClients)},
		[2]string{"request_bytes", fmt.Sprint(w.reqBytes)},
	)
	printMeta(out, meta)

	pl := payloads(in.corpus, w.reqBytes)
	refs, err := reference(in.base, in.caseFold, pl)
	if err != nil {
		return result{}, err
	}
	for i, pats := range in.reloads {
		rr, err := reference(pats, in.caseFold, pl)
		if err != nil {
			return result{}, err
		}
		if !sameRefs(refs, rr) {
			return result{}, fmt.Errorf("set-up: reload dictionary %c matches the corpus differently from the base dictionary", 'a'+i)
		}
	}

	ld := &load{
		url: st.url, payloads: pl, refs: refs, clients: w.scanClients,
		reloadEvery: w.reloadEvery, basePath: basePath, reloadPaths: reloadPaths, caseFold: in.caseFold,
	}
	// With scheduled reloads, one untimed reload first moves the stack
	// from base to the first reload version, so every timed reload swaps
	// one absent set for the other. The warm-up fills caches and
	// connections. Their replies are checked like every other but their
	// timings are dropped.
	var warm loadResult
	if w.reloadEvery > 0 {
		warm = ld.reloadClient(0, time.Now(), 1, nil)
	}
	warm.add(ld.run(k.warm))

	if c.trace == 1 {
		return tracedRun(c, k, w, in, st, ld, warm, basePath, out)
	}

	// The window runs as back-to-back slices. Each slice gives one value
	// of every windowed metric and the run reports the median over the
	// slices, so a burst of load from other tenants of the host that
	// covers fewer than half the slices does not move the figures.
	// Workloads without scheduled reloads probe reload latency after
	// each slice (probeReloads).
	var total loadResult
	perSlice := map[string][]float64{}
	for range windowSlices {
		cpu0 := cpuSeconds()
		sl := ld.run(c.window() / windowSlices)
		cpu := cpuSeconds() - cpu0
		reloads := sl.reloadMS
		if w.reloadEvery == 0 {
			runtime.GC() // each probe starts from the same heap
			probe := ld.probeReloads(k.probeCount / windowSlices)
			total.add(probe)
			reloads = probe.reloadMS
		}
		total.add(sl)
		for name, v := range map[string]float64{
			"throughput_mbps": sl.mbps(),
			"p50_ms":          quantile(sl.scanMS, 0.50),
			"p99_ms":          quantile(sl.scanMS, 0.99),
			"cpu_s_per_gb":    cpu / (float64(sl.okBytes) / 1e9),
			"reload_p50_ms":   quantile(reloads, 0.50),
			"reload_p90_ms":   quantile(reloads, 0.90),
		} {
			if !math.IsNaN(v) { // a short slice may hold no reload
				perSlice[name] = append(perSlice[name], v)
			}
		}
	}
	// For comparison, the same quantiles over every request of the
	// window pooled together.
	fmt.Fprintf(out, "note scans=%d reloads=%d reload_late_max_ms=%.3f slice_mbps=%.4g pooled_p50_ms=%g pooled_p99_ms=%g pooled_reload_p50_ms=%g pooled_reload_p90_ms=%g\n",
		total.scans, total.reloads, ms(total.reloadLate), perSlice["throughput_mbps"],
		quantile(total.scanMS, 0.50), quantile(total.scanMS, 0.99), quantile(total.reloadMS, 0.50), quantile(total.reloadMS, 0.90))
	total.add(warm)
	if total.scans == total.scanFailed {
		return result{}, fmt.Errorf("no /scan request succeeded: %s", total.firstErr)
	}
	failedFrac := float64(total.failed()) / float64(total.attempted())
	vals := map[string]float64{
		"setup_s": quantile(setups, 0.5),
		"heap_mb": heapMB,
	}
	for name, xs := range perSlice {
		vals[name] = quantile(xs, 0.5)
	}
	fmt.Fprintf(out, "metric failed_frac %g frac\n", failedFrac)
	return finish(out, endToEnd, vals, total.attempted(), total.failed(), total.firstErr)
}

// tracedRun measures half the window untraced and half traced (the
// difference is the tracing overhead), replays a sample of the traced
// requests layer by layer, times the compile and reload phases, and
// writes the spans.
func tracedRun(c config, k knobs, w spec, in inputs, st *stack, ld *load, warm loadResult, basePath string, out io.Writer) (result, error) {
	rt0 := readRuntime()
	plain := ld.run(c.window() / 2)
	rt1 := readRuntime()

	tr := newTracer()
	st.gate.tr.Store(tr)
	ld.tr = tr
	traced := ld.run(c.window() / 2)
	st.gate.tr.Store(nil)
	ld.tr = nil

	rp, err := runReplay(tr, st, ld.payloads, ld.refs, k.samples)
	if err != nil {
		return result{}, err
	}
	e := st.reg.Current()
	stt := e.Matcher.Stats()
	ph, err := timePhases(in, basePath, stt.Engine, k.phaseReps)
	if err != nil {
		return result{}, fmt.Errorf("phases: %w", err)
	}

	var handler, outside []float64
	for _, id := range tr.complete() {
		tr.mu.Lock()
		r := *tr.reqs[id]
		tr.mu.Unlock()
		handler = append(handler, ms(r.handler))
		outside = append(outside, ms(r.client-r.handler))
	}
	thr := loadResult.mbps
	okPlain := plain.scans - plain.scanFailed
	if okPlain == 0 {
		return result{}, fmt.Errorf("no untraced /scan request succeeded: %s", plain.firstErr)
	}
	perMB := func(d time.Duration) float64 { return ms(d) / (rp.bytes / 1e6) }
	vals := map[string]float64{
		"server.handler_p50_ms":         quantile(handler, 0.5),
		"server.outside_handler_p50_ms": quantile(outside, 0.5),
		"server.unattributed_p50_ms":    quantile(rp.unattributed, 0.5),
		"server.encode_us_per_req":      quantile(rp.encodeUS, 0.5),
		"server.encode_bytes_per_req":   float64(rp.encodeBytes) / float64(rp.n),
		"core.findall_ms_per_mb":        perMB(rp.findall),
		"parallel.pool_vs_seq_ratio":    float64(rp.findall) / float64(rp.seq),
		"filter.segments_ms_per_mb":     perMB(rp.segments),
		"filter.skip_pct":               100 * float64(rp.skipped) / float64(rp.windows),
		"filter.verify_frac":            float64(rp.segBytes) / rp.bytes,
		"kernel.scan_ms_per_mb":         perMB(rp.scan),
		"kernel.verify_ms_per_mb":       perMB(rp.verify),
		"kernel.table_kb":               float64(stt.KernelTableBytes+stt.PairTableBytes+stt.CompressedTableBytes) / 1024,
		"core.compile_ms":               ph.compileMS,
		"dfa.build_ms":                  ph.dfaMS,
		"kernel.build_ms":               ph.kernelMS,
		"core.delta_ms":                 ph.deltaMS,
		"registry.parse_ms":             ph.parseMS,
		"registry.swap_us":              ph.swapUS,
		"runtime.alloc_kb_per_req":      (rt1.allocBytes - rt0.allocBytes) / 1024 / float64(plain.attempted()),
		"runtime.gc_cpu_frac":           (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU),
		"trace.overhead_pct":            100 * (thr(plain) - thr(traced)) / thr(plain),
	}

	fmt.Fprintf(out, "note untraced_mbps=%.3f traced_mbps=%.3f traced_requests=%d replayed=%d\n",
		thr(plain), thr(traced), len(handler), rp.n)
	for _, lt := range tr.selfTimes() {
		fmt.Fprintf(out, "layer %s spans=%d p50_ms=%.4f self_p50_ms=%.4f\n", lt.name, lt.count, lt.durP50MS, lt.selfP50MS)
	}
	spans := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
	if err := tr.write(spans, map[string]any{"workload": w.name, "seed": c.seed, "rung": stt.Engine}); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "note spans=%s\n", spans)

	attempted := warm.attempted() + plain.attempted() + traced.attempted() + rp.n
	failed := warm.failed() + plain.failed() + traced.failed() + rp.failed
	firstErr := warm.firstErr
	for _, e := range []string{plain.firstErr, traced.firstErr, rp.firstErr} {
		if firstErr == "" {
			firstErr = e
		}
	}
	return finish(out, perLayer, vals, attempted, failed, firstErr)
}

// finish prints every listed metric by name and unit and assembles the
// result line.
func finish(out io.Writer, defs []metric, vals map[string]float64, attempted, failed int, firstErr string) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s: no value (%v)", m.Name, v)
		}
		fmt.Fprintf(out, "metric %s %g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if firstErr != "" {
		fmt.Fprintf(out, "error first failure: %s\n", firstErr)
	}
	return res, nil
}

// liveHeap is the live Go heap after two forced collections (the
// second clears what sync.Pools released in the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{f(s[0].Value), f(s[1].Value), f(s[2].Value)}
}
