package kernel

import (
	"fmt"
	"testing"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
	"cellmatch/internal/workload"
)

// BenchmarkLanes sweeps the 1-byte loops over piece sizes on the two
// served dictionary shapes: the Figure 3 NIDS dictionary (1520-state
// target, one L1/L2-resident slot) and the 30000-state big dictionary
// (one slot past L2). k=1 is the serial loop, k=4 the lane loop
// (scan4); the laneMinBytes cut and the lane loop's gains are read off
// this sweep:
//
//	go test ./internal/kernel -run '^$' -bench Lanes -count 5
func BenchmarkLanes(b *testing.B) {
	for _, target := range []int{1520, 30000} {
		pats, err := workload.Dictionary(workload.DictConfig{TargetStates: target, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := compose.NewSystem(pats, compose.Config{CaseFold: true, HostTableBytes: DefaultMaxTableBytes})
		if err != nil {
			b.Fatal(err)
		}
		e, err := Compile(sys, Options{Stride: 1})
		if err != nil {
			b.Fatal(err)
		}
		data, _, err := workload.Traffic(workload.TrafficConfig{
			Bytes: 256 << 10, MatchEvery: 64 << 10, Dictionary: pats, Seed: 21,
		})
		if err != nil {
			b.Fatal(err)
		}
		states := e.Tables[0].States
		for _, n := range []int{256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 256 << 10} {
			for _, k := range []int{1, laneK} {
				b.Run(fmt.Sprintf("states=%d/n=%d/k=%d", states, n, k), func(b *testing.B) {
					var out []dfa.Match
					b.SetBytes(int64(len(data)))
					for i := 0; i < b.N; i++ {
						// Every piece of the buffer, so a short piece's
						// figure is not one cache-hot 256-byte window.
						for off := 0; off+n <= len(data); off += n {
							out = out[:0]
							e.scan1(data[off:off+n], off, 0, k, &out)
						}
					}
				})
			}
		}
	}
}

// BenchmarkCompressedLanes is BenchmarkLanes for the compressed rung:
// FindAll on one-slot compressed tables of the same two dictionaries,
// at the lane count its own rule picks for each piece size:
//
//	go test ./internal/kernel -run '^$' -bench CompressedLanes -count 5
func BenchmarkCompressedLanes(b *testing.B) {
	for _, target := range []int{1520, 30000} {
		pats, err := workload.Dictionary(workload.DictConfig{TargetStates: target, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := compose.NewSystem(pats, compose.Config{CaseFold: true, HostTableBytes: DefaultMaxTableBytes})
		if err != nil {
			b.Fatal(err)
		}
		e, err := CompileCompressed(sys, Options{})
		if err != nil {
			b.Fatal(err)
		}
		data, _, err := workload.Traffic(workload.TrafficConfig{
			Bytes: 256 << 10, MatchEvery: 64 << 10, Dictionary: pats, Seed: 21,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{512, 1 << 10, 4 << 10, 64 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("states=%d/n=%d", e.Tables[0].States, n), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					for off := 0; off+n <= len(data); off += n {
						e.FindAll(data[off : off+n])
					}
				}
			})
		}
	}
}
