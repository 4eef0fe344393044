package dfa_test

import (
	"fmt"
	"testing"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
	"cellmatch/internal/workload"
)

// BenchmarkFromPatternsWorkload is the one-slot host build of the
// served dictionary shapes (the 1520-state NIDS dictionary and the
// 30000-state big dictionary): the automaton every set-up and every
// delta reload of such a dictionary rebuilds.
//
//	go test ./internal/dfa -run '^$' -bench FromPatternsWorkload -count 5
func BenchmarkFromPatternsWorkload(b *testing.B) {
	for _, target := range []int{1520, 30000} {
		pats, err := workload.Dictionary(workload.DictConfig{TargetStates: target, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		red, err := alphabet.ForDictionary(pats, true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("target=%d", target), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dfa.FromPatterns(pats, red); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
