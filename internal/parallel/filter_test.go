package parallel

import (
	"bytes"
	"sync/atomic"
	"testing"

	"cellmatch/internal/filter"
	"cellmatch/internal/kernel"
)

// filterFor builds the skip-scan front-end from the same patterns and
// reduction the system compiled with.
func filterFor(t *testing.T, patterns []string, sysRedPatterns []string) *filter.Filter {
	t.Helper()
	sys := mustSystem(t, sysRedPatterns)
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	f, err := filter.Build(bs, sys.Red)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestScanFilteredEquivalence: Options.Filter must be invisible in the
// output on every engine (stt scratch path, dense kernel, sharded) for
// chunk sizes that cut through matches, windows, and verify segments —
// including chunks smaller than the filter window.
func TestScanFilteredEquivalence(t *testing.T) {
	sys := mustSystem(t, testDict)
	f := filterFor(t, testDict, testDict)
	data := repeatedText(4096)
	want := sequential(t, sys, data)
	if len(want) == 0 {
		t.Fatal("fixture has no matches")
	}
	eng, err := kernel.Compile(sys, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]byte, len(testDict))
	for i, p := range testDict {
		bs[i] = []byte(p)
	}
	sharded, err := kernel.CompileSharded(bs, kernel.ShardConfig{
		CaseFold: true, MaxTableBytes: 1 << 10, MaxShards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]Options{
		"stt":     {Filter: f},
		"kernel":  {Filter: f, Verifier: eng},
		"sharded": {Filter: f, Verifier: sharded},
	}
	for name, base := range engines {
		for _, chunk := range []int{1, 2, 3, 7, 64, 500, 4096, 9000} {
			o := base
			o.Workers = 3
			o.ChunkBytes = chunk
			got, err := Scan(sys, data, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s chunk %d: %d matches, want %d", name, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s chunk %d: match %d = %+v, want %+v", name, chunk, i, got[i], want[i])
				}
			}
			rd, err := ScanReader(sys, bytes.NewReader(data), o)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, want, rd)
		}
	}
}

// TestScanFilteredSkipCounter: the skip counter must advance exactly
// once per chunk even when the sharded engine fans one task per
// (shard, chunk) — the shared segment provider computes (and counts)
// once and every shard unit reuses it.
func TestScanFilteredSkipCounter(t *testing.T) {
	// Long patterns over input that contains none of them: every
	// window dies immediately, so skips are near-maximal.
	dict := []string{"VIRUSSIGNATURE", "WORMSIGNATURES"}
	sys := mustSystem(t, dict)
	f := filterFor(t, dict, dict)
	data := bytes.Repeat([]byte("benign lowercase traffic 0123456789 "), 200)
	var adhoc, pooled atomic.Uint64
	o := Options{Filter: f, FilterSkipped: &adhoc, Workers: 2, ChunkBytes: 512}
	if _, err := Scan(sys, data, o); err != nil {
		t.Fatal(err)
	}
	if adhoc.Load() == 0 {
		t.Fatal("no windows skipped on clean input")
	}
	// Sharded fan-out (one unit per shard) must not multiply the count:
	// re-scan with a sharded engine and compare against the ad-hoc run.
	bs := make([][]byte, len(dict))
	for i, p := range dict {
		bs[i] = []byte(p)
	}
	sharded, err := kernel.CompileSharded(bs, kernel.ShardConfig{
		CaseFold: true, MaxTableBytes: 1 << 11, MaxShards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() < 2 {
		t.Fatalf("fixture needs >= 2 shards, got %d", sharded.Shards())
	}
	o = Options{Filter: f, FilterSkipped: &pooled, Verifier: sharded, Workers: 2, ChunkBytes: 512}
	if _, err := Scan(sys, data, o); err != nil {
		t.Fatal(err)
	}
	if pooled.Load() != adhoc.Load() {
		t.Fatalf("sharded fan-out inflated the skip counter: %d vs %d", pooled.Load(), adhoc.Load())
	}
}
