// Package cellmatch is a DFA-based multi-pattern string-matching
// library reproducing "Peak-Performance DFA-based String Matching on
// the Cell Processor" (Scarpazza, Villa, Petrini — IPPS 2007).
//
// The library compiles dictionaries of exact strings (or regular
// expressions) into alphabet-reduced, pointer-encoded Aho-Corasick
// state transition tables — the paper's DFA tile — and scans data with
// content-independent cost. By default scanning runs on the dense
// compiled kernel (see EngineOptions): cache-resident flattened
// tables with the alphabet reduction baked in, scanned single-stream
// or by a 5-lane loop, the host-CPU analog of the paper's
// multi-buffered SPE streams. Alongside the production matcher it
// ships the paper's full performance apparatus: an instruction-level
// SPU simulator, a Cell memory-system model, and the schedules that
// regenerate every table and figure of the paper's evaluation (see
// EXPERIMENTS.md).
//
// Quick start:
//
//	m, err := cellmatch.CompileStrings([]string{"virus", "worm"},
//		cellmatch.Options{CaseFold: true})
//	if err != nil { ... }
//	matches, err := m.FindAll(packet)
//
// Incremental scanning:
//
//	s := m.NewStream()
//	s.Write(chunk1)
//	s.Write(chunk2)
//	hits := s.Matches()
//
// Parallel scanning on the host CPU — the paper's Figure 6a tiling
// mapped onto goroutines. Input is split into chunks, each scanned
// from a speculative root state, and chunk boundaries are reconciled
// by re-scanning an overlap window of MaxPatternLen-1 bytes, so the
// results are byte-for-byte identical to FindAll:
//
//	matches, err := m.FindAllParallel(data, cellmatch.ParallelOptions{Workers: 8})
//
// Batched streaming from sockets or files too large to buffer
// (memory stays O(Workers x ChunkBytes)):
//
//	matches, err := m.ScanReader(conn, cellmatch.ParallelOptions{})
//
// Performance estimation on simulated Cell hardware:
//
//	est, err := cellmatch.EstimateCell(m, cellmatch.DefaultBlade(), 1<<24)
//	fmt.Printf("%.2f Gbps on %d SPEs\n", est.SimulatedGbps, est.TilesUsed)
package cellmatch

import (
	"cellmatch/internal/cell"
	"cellmatch/internal/core"
	"cellmatch/internal/dfa"
	"cellmatch/internal/parallel"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
	"cellmatch/internal/tile"
)

// Matcher is a compiled dictionary; see core.Matcher.
type Matcher = core.Matcher

// Options configure compilation; see core.Options.
type Options = core.Options

// Match is one dictionary hit.
type Match = core.Match

// Stream is an incremental scanner.
type Stream = core.Stream

// ParallelOptions tune Matcher.FindAllParallel and Matcher.ScanReader;
// see core.ParallelOptions. The zero value uses one worker per CPU
// and 64 KiB chunks.
type ParallelOptions = core.ParallelOptions

// EngineOptions (the Engine field of Options) select the scan engine
// behind FindAll, FindAllParallel, Stream, and ScanReader.
//
// The default is the dense compiled kernel: each series slot's
// automaton is flattened into a cache-line-aligned table of 4-byte
// entries (row width = the reduced alphabet rounded to a power of
// two) with the byte→class alphabet reduction baked into a 256-entry
// map, so a scan is a single pass over the raw input — one indexed
// load, one AND, and one ADD per byte, with match metadata packed
// into entry flag bits exactly like the paper's pointer-encoded STT
// tile. Inputs and pooled chunks of 1 KiB or more are scanned by a
// 5-lane loop: the piece is split into 5 lanes with MaxPatternLen-1
// overlap (the paper's Figure 6a input portions mapped onto in-loop
// streams instead of SPEs) and 5 independent cursors advance per
// iteration, hiding the dependent-load latency of the cache-resident
// table. EngineOptions.InterleaveK 1 pins the single-stream loop; any
// other value keeps this rule.
//
// Dense rows cost (row width × 4) bytes per state, so a dictionary's
// tables can outgrow the budget (EngineOptions.MaxTableBytes, default
// 8 MiB); the matcher then tries the compressed-row tier
// (EngineOptions.Compressed): bitmap-indexed rows that store only the
// transitions differing from a per-state default chain, shrinking the
// footprint by roughly the alphabet width so much larger dictionaries
// stay cache-resident, at a few extra ops per byte. When even the
// compressed rows overflow (or the mode is CompressedOff), the
// matcher shards the dictionary into up to MaxShards sub-dictionaries
// whose kernels each fit the budget — the paper's answer to
// dictionaries outgrowing one SPE's local store — scanning every
// shard against the input and merging the match streams into the
// unsharded order; only when even sharding cannot fit does it fall
// back to the original alphabet-reduce + stt/dfa lookup path.
// Matcher.Stats().Engine reports which tier is live ("kernel",
// "compressed", "sharded", or "stt"), with KernelTableBytes,
// CompressedTableBytes, Shards, MaxShardTableBytes, and the
// TableFitsL1/TableFitsL2 residency flags alongside.
//
// Ahead of all these tiers sits the optional skip-scan front-end
// (EngineOptions.Filter, internal/filter): a BNDM-style reverse-suffix
// window filter that skips most input bytes and hands only candidate
// windows to the verifier, making throughput scale with skip distance
// instead of input length. FilterAuto (the default) enables it when
// the dictionary qualifies; Stats().FilterEnabled, MinPatternLen, and
// WindowsSkipped report it. All configurations are byte-for-byte
// identical in output (FuzzKernelEquivalence, FuzzShardEquivalence,
// and FuzzFilterEquivalence assert this), so the knobs are purely
// performance/memory trades.
type EngineOptions = core.EngineOptions

// FilterMode is the EngineOptions.Filter policy for the skip-scan
// front-end: FilterAuto (default; on when the dictionary qualifies),
// FilterOn (forced when legal), FilterOff.
type FilterMode = core.FilterMode

// Filter policies; see FilterMode.
const (
	FilterAuto = core.FilterAuto
	FilterOn   = core.FilterOn
	FilterOff  = core.FilterOff
)

// CompressedMode is the EngineOptions.Compressed policy for the
// compressed-row tier: CompressedAuto (default; selected when the
// dense table overflows the budget and the compressed rows fit L2),
// CompressedOn (forced when it compiles within MaxTableBytes),
// CompressedOff.
type CompressedMode = core.CompressedMode

// Compressed-row policies; see CompressedMode.
const (
	CompressedAuto = core.CompressedAuto
	CompressedOn   = core.CompressedOn
	CompressedOff  = core.CompressedOff
)

// RegexSet matches whole inputs against regular expressions (the
// unbounded-repetition surface; see CompileRegexSearch for searching).
type RegexSet = core.RegexSet

// Pool is a persistent shared worker pool for scan jobs: the
// long-running-server mode of the parallel engine. Set
// ParallelOptions.Pool to scan on it instead of spawning goroutines
// per call; many concurrent scans share its fixed worker set. Create
// with NewPool, release with Close.
type Pool = parallel.Pool

// Registry manages the live dictionary of a long-running service: it
// publishes one *Matcher behind an atomic pointer and hot-swaps it
// RCU-style, so reloads never stall or tear in-flight scans. See
// internal/registry.
type Registry = registry.Registry

// RegistryEntry is one published dictionary: matcher + provenance
// (source, generation, load time).
type RegistryEntry = registry.Entry

// Loader produces a fresh matcher from a configured source; see
// ArtifactLoader and DictLoader.
type Loader = registry.Loader

// Namespace is a fleet of named Registries — one independent
// hot-swappable dictionary per tenant — served by a single Server
// under /t/{tenant}/... paths. See internal/registry.
type Namespace = registry.Namespace

// DefaultTenant is the tenant name the bare (un-prefixed) server
// paths resolve to.
const DefaultTenant = registry.DefaultTenant

// Server is the HTTP matching service behind cmd/cellmatchd: /scan
// (and its alias /scan/batch), /scan/stream, /reload (hot swap),
// /stats, /metrics (Prometheus text), with every endpoint also
// mounted per tenant under /t/{tenant}/... when serving a Namespace.
// See internal/server.
type Server = server.Server

// ServerConfig tunes the serving layer; the zero value plus a
// Registry (single dictionary) or a Namespace (multi-tenant) is
// production-ready. MaxInflight/MaxQueuedBytes bound admitted scan
// work — excess requests are shed with 429 + Retry-After.
type ServerConfig = server.Config

// ScanResponse is the serving layer's reply shape for scan endpoints.
type ScanResponse = server.ScanResponse

// NewPool starts a shared scan pool of workers goroutines (<=0 means
// one per CPU).
func NewPool(workers int) *Pool { return parallel.NewPool(workers) }

// NewRegistry creates a registry bound to a loader; call Reload to
// publish the first dictionary.
func NewRegistry(source string, load Loader) *Registry { return registry.New(source, load) }

// NewMatcherRegistry publishes an already-compiled matcher as
// generation 1.
func NewMatcherRegistry(m *Matcher, source string) *Registry {
	return registry.NewWithMatcher(m, source)
}

// NewNamespace creates an empty tenant namespace; populate it with
// Set(tenant, registry) and serve it via ServerConfig.Namespace.
func NewNamespace() *Namespace { return registry.NewNamespace() }

// ArtifactLoader loads a compiled Save/Load artifact from path.
func ArtifactLoader(path string) Loader { return registry.ArtifactLoader(path) }

// DictLoader compiles a plain-text pattern file (one pattern per
// line, '#' comments) with the given options.
func DictLoader(path string, opts Options) Loader { return registry.DictLoader(path, opts) }

// NewServer builds the HTTP matching service over a registry; mount
// its Handler() on any http.Server and Close it on shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Blade describes simulated Cell hardware.
type Blade = cell.Blade

// Estimate is a predicted deployment throughput.
type Estimate = cell.Estimate

// Table1Row is one measured column of the paper's Table 1.
type Table1Row = tile.Table1Row

// Compile builds a matcher from byte-string patterns.
func Compile(patterns [][]byte, opts Options) (*Matcher, error) {
	return core.Compile(patterns, opts)
}

// CompileStrings builds a matcher from string patterns.
func CompileStrings(patterns []string, opts Options) (*Matcher, error) {
	return core.CompileStrings(patterns, opts)
}

// CompileRegexes builds a whole-input regular-expression set.
func CompileRegexes(exprs []string, caseFold bool) (*RegexSet, error) {
	return core.CompileRegexes(exprs, caseFold)
}

// CompileRegexSearch builds a full search Matcher from a dictionary of
// regular expressions: a hit is reported at every offset where some
// substring ending there matches an expression — the same
// (End, Pattern) contract as literal dictionaries, so the matcher
// scans on the dense kernel, parallel/stream engines, serves through
// cellmatchd, and persists as an artifact unchanged. Expressions must
// not match the empty string and need a bounded maximum match length
// (no '*', '+', or '{m,}' — use '{m,n}', or RegexSet for whole-input
// matching). The skip-scan filter and sharded tier are literal-only
// and are bypassed. Matcher.IsRegex reports the dictionary kind;
// Pattern(i) returns the expression source.
func CompileRegexSearch(exprs []string, opts Options) (*Matcher, error) {
	return core.CompileRegexSearch(exprs, opts)
}

// RegexDictLoader compiles a plain-text regular-expression file (one
// expression per line, '#' comments) into a search matcher.
func RegexDictLoader(path string, opts Options) Loader { return registry.RegexLoader(path, opts) }

// DefaultBlade is one Cell processor (8 SPEs).
func DefaultBlade() Blade { return cell.DefaultBlade() }

// DualBlade is the paper's two-processor blade (16 SPEs).
func DualBlade() Blade { return cell.DualBlade() }

// EstimateCell plans m onto a blade and predicts filtering throughput
// for the given traffic volume, with the kernel version m was compiled
// for (Options.Version). The Cell model lives here, beside the paper's
// other apparatus, so the matcher and the daemon do not link the
// simulator.
func EstimateCell(m *Matcher, blade Blade, inputBytes int64) (Estimate, error) {
	sys, err := m.CellSystem()
	if err != nil {
		return Estimate{}, err
	}
	d, err := cell.Plan(sys, blade, m.Options().Version)
	if err != nil {
		return Estimate{}, err
	}
	return d.Estimate(inputBytes), nil
}

// Table1 regenerates the paper's Table 1 on the largest tile of m's
// Figure 3 tiling.
func Table1(m *Matcher) ([]Table1Row, error) {
	sys, err := m.CellSystem()
	if err != nil {
		return nil, err
	}
	var biggest *dfa.DFA
	for _, d := range sys.Slots {
		if biggest == nil || d.NumStates() > biggest.NumStates() {
			biggest = d
		}
	}
	return tile.MeasureTable1(biggest, 16*1024, 1)
}

// MinimumSPEsFor returns the tile count needed to filter a link of
// linkGbps at perTileGbps each (the paper: 2 SPEs for 10 Gbps).
func MinimumSPEsFor(linkGbps, perTileGbps float64) (int, error) {
	return cell.MinimumSPEsFor(linkGbps, perTileGbps)
}
