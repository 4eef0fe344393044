package core

import (
	"bytes"
	"strings"
	"testing"

	"cellmatch/internal/parallel"
)

// shardedMatchers compiles the same dictionary three times: forced
// into the sharded tier (budget far under the dense table), onto the
// plain stt path, and unrestricted (plain kernel) as a sanity anchor.
func shardedMatchers(t *testing.T, patterns []string, fold bool, maxShards int) (shardedM, sttM *Matcher) {
	t.Helper()
	// The skip-scan front-end is pinned off: these suites exercise the
	// sharded scan schedules themselves (the filter has its own
	// equivalence matrix, which covers sharded verification too). The
	// anchor compile pins Stride 1 so its dense footprint sets the
	// shard-forcing budget.
	opts := Options{CaseFold: fold, Engine: EngineOptions{Filter: FilterOff, Stride: 1}}
	kernelM, err := CompileStrings(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kernelM.Stats().Engine != "kernel" {
		t.Fatal("unrestricted compile did not select the kernel engine")
	}
	// Three quarters of the real dense footprint forces the ladder past
	// the plain kernel; each single pattern still fits a shard. The
	// compressed rung is pinned off so it cannot intercept the
	// over-budget dictionary before the shard planner sees it.
	budget := kernelM.Stats().KernelTableBytes * 3 / 4
	opts.Engine = EngineOptions{
		MaxTableBytes: budget, MaxShards: maxShards,
		Filter: FilterOff, Compressed: CompressedOff,
	}
	shardedM, err = CompileStrings(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = EngineOptions{DisableKernel: true, Filter: FilterOff}
	sttM, err = CompileStrings(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	return shardedM, sttM
}

// TestShardedEquivalenceMatrix is the deterministic core of the
// FuzzShardEquivalence guarantee: fold on and off, shard caps 1
// through 4, sequential FindAll, Count, ad-hoc parallel, shared-pool
// parallel, ScanReader, and Stream all byte-identical to the stt path.
func TestShardedEquivalenceMatrix(t *testing.T) {
	dict := []string{
		"abracadab", "cadabraca", "dabracada", "racadabra",
		"abra", "cada", "bracadabr", "acadabrac",
	}
	data := []byte(strings.Repeat("abracadabra racadabra cadabraca ", 40))
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, fold := range []bool{false, true} {
		for shards := 1; shards <= 4; shards++ {
			shardedM, sttM := shardedMatchers(t, dict, fold, shards)
			engine := shardedM.Stats().Engine
			if engine == "kernel" {
				t.Fatalf("fold=%v shards=%d: budget under the dense table still selected kernel", fold, shards)
			}
			if shards >= 2 && engine != "sharded" {
				t.Fatalf("fold=%v shards=%d: engine %q, want sharded", fold, shards, engine)
			}
			want, err := sttM.FindAll(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("fixture traffic has no matches")
			}
			got, err := shardedM.FindAll(data)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "FindAll", got, want)
			if n, err := shardedM.Count(data); err != nil || n != len(want) {
				t.Fatalf("Count = %d (%v), want %d", n, err, len(want))
			}
			for _, popts := range []ParallelOptions{
				{Workers: 3, ChunkBytes: 64},
				{ChunkBytes: 97, Pool: pool},
			} {
				par, err := shardedM.FindAllParallel(data, popts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, "FindAllParallel", par, want)
				rd, err := shardedM.ScanReader(bytes.NewReader(data), popts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, "ScanReader", rd, want)
			}
			s := shardedM.NewStream()
			for off := 0; off < len(data); off += 33 {
				s.Write(data[off:min(off+33, len(data))])
			}
			if len(s.Matches()) != len(want) {
				t.Fatalf("Stream found %d matches, want %d", len(s.Matches()), len(want))
			}
		}
	}
}

// The sharded tier must report its shape through Stats and EngineName.
func TestShardedStats(t *testing.T) {
	dict := []string{"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd", "eeeeeeee"}
	shardedM, sttM := shardedMatchers(t, dict, false, 0)
	st := shardedM.Stats()
	if st.Engine != "sharded" || shardedM.EngineName() != "sharded" {
		t.Fatalf("engine = %q / %q, want sharded", st.Engine, shardedM.EngineName())
	}
	if st.Shards < 2 {
		t.Fatalf("Shards = %d, want >= 2", st.Shards)
	}
	if st.MaxShardTableBytes <= 0 || st.MaxShardTableBytes > st.KernelTableBytes {
		t.Fatalf("shard footprint out of range: %+v", st)
	}
	if st.MaxShardTableBytes > st.DenseTableBudget {
		t.Fatalf("a shard exceeds the per-shard budget: %+v", st)
	}
	if ss := sttM.Stats(); ss.Shards != 0 || ss.MaxShardTableBytes != 0 {
		t.Fatalf("stt stats carry shard fields: %+v", ss)
	}
}

// MaxShards below what the dictionary needs must degrade to stt, not
// fail compilation.
func TestShardedCapDegradesToSTT(t *testing.T) {
	dict := []string{"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd", "eeeeeeee", "ffffffff"}
	m, err := CompileStrings(dict, Options{
		Engine: EngineOptions{MaxTableBytes: 1 << 10, MaxShards: 1, Compressed: CompressedOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Engine; got != "stt" {
		t.Fatalf("engine = %q, want stt (cap too low to shard)", got)
	}
	if _, err := m.FindAll([]byte("xxaaaaaaaaxx")); err != nil {
		t.Fatal(err)
	}
}
