// Quickstart: compile a small dictionary, scan a buffer, stream data
// incrementally, and print the compiled artifact's shape.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"cellmatch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Compile a case-insensitive dictionary.
	m, err := cellmatch.CompileStrings(
		[]string{"virus", "worm", "trojan"},
		cellmatch.Options{CaseFold: true},
	)
	if err != nil {
		return err
	}

	// 2. Scan a buffer: every occurrence is reported with its
	// dictionary index and end offset.
	data := []byte("A Virus was found near a WORM, then another virus.")
	matches, err := m.FindAll(data)
	if err != nil {
		return err
	}
	for _, hit := range matches {
		pat := m.Pattern(hit.Pattern)
		fmt.Fprintf(w, "pattern %q at bytes [%d, %d)\n", pat, hit.End-len(pat), hit.End)
	}

	// 3. Stream the same data in two chunks: matches carry global
	// offsets even when they straddle chunk boundaries.
	s := m.NewStream()
	s.Write(data[:20])
	s.Write(data[20:])
	fmt.Fprintf(w, "streaming found %d matches over %d bytes\n",
		len(s.Matches()), s.BytesSeen())

	// 4. Scan the same bytes with the parallel engine: identical
	// matches, chunked across one goroutine per CPU.
	par, err := m.FindAllParallel(data, cellmatch.ParallelOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parallel scan found %d matches (identical to FindAll)\n", len(par))

	// 5. Inspect the compiled shape: states, STT size, tile budget.
	st := m.Stats()
	fmt.Fprintf(w, "dictionary: %d patterns -> %d DFA states -> %d KB of STT (%d tile)\n",
		st.Patterns, st.States, st.STTBytes/1024, st.TilesRequired)

	// 6. Ask the performance model what this costs on Cell hardware.
	est, err := cellmatch.EstimateCell(m, cellmatch.DefaultBlade(), 1<<24)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "one SPE filters %.2f Gbps; this deployment: %.2f Gbps on %d tile(s)\n",
		est.PerTileGbps, est.SimulatedGbps, est.TilesUsed)
	return nil
}
