package kernel

import "cellmatch/internal/dfa"

// Verifier is the one contract every rung of the selection ladder
// meets — stride-2 and dense kernel (*Engine), compressed rows
// (*Compressed), sharded kernels (*Sharded), and the stt fallback
// (*STT) — the host analog of the paper's uniform tile: core, parallel
// and the server compose verifiers without knowing which rung is
// inside. Adding or removing a rung touches that rung's file plus the
// selection function in core.
//
// Every implementation reports byte-identical (End, Pattern) output:
// FindAll sorted, ScanUnit's per-unit slices in any order (the caller
// merges and sorts), carry scans in feed order per table. Dispatch
// through the interface happens per call or per chunk, never per byte.
type Verifier interface {
	// Name is the rung: "stride2", "kernel", "compressed", "sharded",
	// or "stt".
	Name() string
	// Stride is the bytes consumed per transition: 2 on the stride-2
	// rung, 1 on the other table rungs, 0 on the stt path.
	Stride() int
	// FindAll returns every occurrence in data, sorted by (End, Pattern).
	FindAll(data []byte) []dfa.Match
	// Count returns the occurrence count without materializing matches.
	Count(data []byte) int
	// Units is how many work items one input chunk fans into: one per
	// shard on the sharded rung, one on every other rung.
	Units() int
	// ScanUnit scans one raw piece from the root state with unit's
	// tables (unit in [0, Units())): matches ending at piece-local
	// offsets <= dedupe are dropped (overlap duplicates), the rest are
	// shifted by base. The union over all units is the piece's match
	// set; order is unspecified.
	ScanUnit(unit int, piece []byte, base, dedupe int) []dfa.Match
	// CarryTables lists the incremental-scan units (one per series
	// slot, across shards when sharded) for streams that carry state
	// across writes.
	CarryTables() []CarryScanner
	// Footprint reports the rung's table sizes for Stats.
	Footprint() Footprint
}

// Footprint is a verifier's table-size report. Resident is the working
// set judged against the cache budgets (L1DataBudget, L2Budget): dense
// plus pair tables on the stride-2 rung, the largest shard on the
// sharded rung, 0 on the stt path (no table residency to report).
type Footprint struct {
	KernelTableBytes     int // dense tables, summed across shards
	PairTableBytes       int // stride-2 pair tables (0 off that rung)
	CompressedTableBytes int // compressed-row tables (0 off that rung)
	Shards               int // shard count (0 off the sharded rung)
	MaxShardTableBytes   int // largest single shard (0 off the sharded rung)
	Slots                int // automata each input byte passes through
	Resident             int
}

// carryScanners widens a table list to the CarryScanner contract.
func carryScanners[T CarryScanner](tables []T) []CarryScanner {
	out := make([]CarryScanner, len(tables))
	for i, t := range tables {
		out[i] = t
	}
	return out
}
