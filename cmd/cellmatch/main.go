// Command cellmatch compiles a dictionary and scans input with the
// paper's DFA-tile machinery.
//
//	cellmatch -dict signatures.txt -in traffic.bin
//	cellmatch -patterns "virus,worm" -casefold -in - < data
//	cellmatch -dict signatures.txt -in traffic.bin -count -stats -estimate
//	cellmatch -dict signatures.txt -in traffic.bin -parallel 8
//
// The dictionary file holds one pattern per line; blank lines and
// lines starting with '#' are ignored.
//
// With -regex the dictionary entries are regular expressions (bounded
// repetition only — no '*', '+', or '{m,}') compiled into one search
// automaton with the same per-occurrence reporting as literal
// dictionaries:
//
//	cellmatch -regex -patterns 'err(or)?,[0-9]{3}' -in access.log
//
// Match starts are unknown for regex dictionaries (lengths vary per
// occurrence), so the first output column is -1 and the pattern column
// shows the expression source.
//
// With -parallel N the input is scanned by the chunked speculative
// engine on N workers (N < 0 means one per CPU), streaming the input
// in batches instead of buffering it, with output identical to the
// sequential scan.
//
// -filter selects the skip-scan front-end (default auto): "on" forces
// the BNDM-style window filter ahead of the verifier engine, "off"
// scans every byte. Output is identical either way; -stats reports
// whether the filter is live and its window.
//
// -stride selects the kernel transition stride (default auto): "2"
// builds the class-pair tables and consumes two bytes per step, "1"
// pins the 1-byte loops, "auto" builds pair tables only when they are
// small enough to stay cache-resident. Output is identical either
// way; -stats reports the live stride and pair-table footprint.
//
// -compressed selects the compressed-row tier (default auto): "on"
// forces the bitmap-indexed compressed tables, "off" disables the
// rung, "auto" engages it when the dense table overflows the budget
// but the compressed rows stay cache-resident. Output is identical
// either way; -stats reports the compressed footprint when live.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cellmatch/internal/cell"
	"cellmatch/internal/core"
	"cellmatch/internal/registry"
)

func main() {
	var (
		dictPath = flag.String("dict", "", "dictionary file (one pattern per line)")
		patterns = flag.String("patterns", "", "comma-separated inline patterns")
		inPath   = flag.String("in", "-", "input file ('-' = stdin)")
		caseFold = flag.Bool("casefold", false, "case-insensitive matching")
		regex    = flag.Bool("regex", false, "dictionary entries are regular expressions (bounded repetition only)")
		filterMd = flag.String("filter", "auto", "skip-scan front-end: auto, on, or off")
		strideMd = flag.String("stride", "auto", "kernel transition stride: auto, 1, or 2")
		compMd   = flag.String("compressed", "auto", "compressed-row tier: auto, on, or off")
		groups   = flag.Int("groups", 1, "parallel tile groups")
		parallel = flag.Int("parallel", 0, "scan with N parallel workers (0 = sequential, <0 = one per CPU)")
		chunk    = flag.Int("chunk", 0, "parallel chunk size in bytes (0 = 64 KiB)")
		count    = flag.Bool("count", false, "print only the match count")
		quiet    = flag.Bool("quiet", false, "exit status only (0 = match found)")
		stats    = flag.Bool("stats", false, "print compiled-dictionary statistics")
		estimate = flag.Bool("estimate", false, "print simulated Cell deployment estimate")
		cworkers = flag.Int("compileworkers", 0, "dictionary compile parallelism (0 = one per CPU, 1 = sequential)")
	)
	flag.Parse()

	dict, err := loadDictionary(*dictPath, *patterns)
	if err != nil {
		fail(err)
	}
	fmode, err := core.ParseFilterMode(*filterMd)
	if err != nil {
		fail(err)
	}
	stride, err := core.ParseStride(*strideMd)
	if err != nil {
		fail(err)
	}
	cmode, err := core.ParseCompressed(*compMd)
	if err != nil {
		fail(err)
	}
	opts := core.Options{
		CaseFold: *caseFold, Groups: *groups, CompileWorkers: *cworkers,
		Engine: core.EngineOptions{Filter: fmode, Stride: stride, Compressed: cmode},
	}
	var m *core.Matcher
	if *regex {
		exprs := make([]string, len(dict))
		for i, p := range dict {
			exprs[i] = string(p)
		}
		m, err = core.CompileRegexSearch(exprs, opts)
	} else {
		m, err = core.Compile(dict, opts)
	}
	if err != nil {
		fail(err)
	}
	if *stats {
		s := m.Stats()
		fmt.Printf("patterns=%d states=%d stt_bytes=%d groups=%d series=%d tiles=%d alphabet=%d\n",
			s.Patterns, s.States, s.STTBytes, s.Groups, s.SeriesDepth, s.TilesRequired, s.AlphabetUsed)
		fmt.Printf("engine=%s slots=%d kernel_table_bytes=%d budget=%d fits_l1=%v fits_l2=%v\n",
			s.Engine, s.Slots, s.KernelTableBytes, s.DenseTableBudget, s.TableFitsL1, s.TableFitsL2)
		fmt.Printf("filter=%v window=%d min_pattern_len=%d\n",
			s.FilterEnabled, s.FilterWindow, s.MinPatternLen)
		fmt.Printf("stride=%d pair_table_bytes=%d compressed_table_bytes=%d\n",
			s.Stride, s.PairTableBytes, s.CompressedTableBytes)
	}
	if *estimate {
		sys, err := m.CellSystem()
		if err != nil {
			fail(err)
		}
		d, err := cell.Plan(sys, cell.DefaultBlade(), m.Options().Version)
		if err != nil {
			fail(err)
		}
		est := d.Estimate(16 * 1024 * 1024)
		fmt.Printf("per_tile=%.2fGbps analytic=%.2fGbps simulated=%.2fGbps tiles=%d utilization=%.1f%%\n",
			est.PerTileGbps, est.AnalyticGbps, est.SimulatedGbps, est.TilesUsed, est.Utilization*100)
	}

	matches, err := scanInput(m, *inPath, *parallel, *chunk)
	if err != nil {
		fail(err)
	}
	switch {
	case *quiet:
		if len(matches) > 0 {
			os.Exit(0)
		}
		os.Exit(1)
	case *count:
		fmt.Println(len(matches))
	default:
		for _, hit := range matches {
			p := m.Pattern(hit.Pattern)
			start := hit.End - len(p)
			if m.IsRegex() {
				start = -1 // match length varies; only the end is known
			}
			fmt.Printf("%d\t%d\t%q\n", start, hit.Pattern, p)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cellmatch:", err)
	os.Exit(2)
}

func loadDictionary(path, inline string) ([][]byte, error) {
	var out [][]byte
	if inline != "" {
		for _, p := range strings.Split(inline, ",") {
			if p != "" {
				out = append(out, []byte(p))
			}
		}
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// Same parser the daemon's registry uses, so a dictionary file
		// that serves also scans (and vice versa).
		pats, err := registry.ParsePatterns(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, pats...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns: use -dict or -patterns")
	}
	return out, nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// scanInput runs the matcher over the input. workers == 0 buffers the
// whole input and scans sequentially; otherwise the input is streamed
// through the parallel engine (workers < 0 = one worker per CPU).
func scanInput(m *core.Matcher, path string, workers, chunk int) ([]core.Match, error) {
	if workers == 0 {
		data, err := readInput(path)
		if err != nil {
			return nil, err
		}
		return m.FindAll(data)
	}
	if workers < 0 {
		workers = 0 // ParallelOptions default: GOMAXPROCS
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return m.ScanReader(r, core.ParallelOptions{Workers: workers, ChunkBytes: chunk})
}
