// Package workload generates deterministic dictionaries and traffic
// for the experiments. The paper evaluated on a pre-production blade
// with security-style dictionaries; the generators here produce
// synthetic equivalents with exactly controlled parameters (state
// counts, match densities, adversarial structure), which is all the
// experiments depend on — DFA scanning is content-independent by
// construction.
package workload

import (
	"fmt"
	"math/rand"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/dfa"
)

// Dictionary generation -----------------------------------------------

// DictConfig controls synthetic dictionary generation.
type DictConfig struct {
	// TargetStates is the desired Aho-Corasick state count (Figure 3
	// budgets: 1520/1648/1712).
	TargetStates int
	// PatternLen is the pattern length (default 24).
	PatternLen int
	// Seed makes generation deterministic.
	Seed int64
}

// Dictionary builds a pattern set whose case-folded Aho-Corasick
// automaton has close to (and never more than) TargetStates states.
func Dictionary(cfg DictConfig) ([][]byte, error) {
	if cfg.TargetStates < 4 {
		return nil, fmt.Errorf("workload: target states %d too small", cfg.TargetStates)
	}
	if cfg.PatternLen == 0 {
		cfg.PatternLen = 24
	}
	if cfg.PatternLen < 3 || cfg.PatternLen > 256 {
		return nil, fmt.Errorf("workload: pattern length %d out of range", cfg.PatternLen)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	red := alphabet.CaseFold32()
	var pats [][]byte
	trie := dfa.NewTrieCounter(red)
	for i := 0; trie.States()+cfg.PatternLen <= cfg.TargetStates; i++ {
		p := make([]byte, cfg.PatternLen)
		// Distinct two-byte prefix guarantees near-disjoint tries.
		p[0] = byte('A' + i%26)
		p[1] = byte('A' + (i/26)%26)
		for j := 2; j < cfg.PatternLen; j++ {
			p[j] = byte('A' + rng.Intn(26))
		}
		if trie.States()+trie.WouldAdd(p) > cfg.TargetStates {
			break
		}
		trie.Insert(p)
		pats = append(pats, p)
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("workload: could not fit any pattern under %d states", cfg.TargetStates)
	}
	return pats, nil
}

// FleetDictionary builds a fleet-scale flat dictionary: n distinct
// uppercase patterns of length 8-24, the compile-latency workload for
// the parallel and incremental compilation benchmarks. Each pattern
// carries a unique base-26 index prefix, so the set is duplicate-free
// at any size without bookkeeping, and the same (n, seed) is always
// byte-identical.
func FleetDictionary(n int, seed int64) ([][]byte, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: fleet dictionary needs at least 1 pattern, got %d", n)
	}
	if n > 26*26*26*26 {
		return nil, fmt.Errorf("workload: fleet dictionary %d exceeds the unique-prefix space", n)
	}
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]byte, n)
	for i := range pats {
		p := make([]byte, 0, 24)
		v := i
		for k := 0; k < 4; k++ {
			p = append(p, byte('A'+v%26))
			v /= 26
		}
		for tail := 4 + rng.Intn(17); tail > 0; tail-- {
			p = append(p, byte('A'+rng.Intn(26)))
		}
		pats[i] = p
	}
	return pats, nil
}

// LongPatternDictionary builds n uppercase patterns of length
// [minLen, maxLen] — the long-pattern signature workload the skip-scan
// front-end is measured on. Benign traffic from Traffic is lowercase,
// so the two alphabets are disjoint under a case-sensitive compile:
// the regime real NIDS dictionaries sit in, where most filter windows
// die on the first byte examined.
func LongPatternDictionary(n, minLen, maxLen int, seed int64) ([][]byte, error) {
	if n < 1 || minLen < 2 || maxLen < minLen {
		return nil, fmt.Errorf("workload: bad long-pattern shape n=%d len=[%d,%d]", n, minLen, maxLen)
	}
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]byte, n)
	for i := range pats {
		p := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
		for j := range p {
			p[j] = byte('A' + rng.Intn(26))
		}
		pats[i] = p
	}
	return pats, nil
}

// SignatureDictionary returns a small NIDS-flavored dictionary of
// realistic-looking signatures for examples and demos.
func SignatureDictionary() [][]byte {
	sigs := []string{
		"CMD.EXE", "/BIN/SH", "SELECT * FROM", "UNION SELECT",
		"ETC/PASSWD", "XP_CMDSHELL", "SCRIPT>ALERT", "WGET HTTP",
		"POWERSHELL -ENC", "EVAL(BASE64", "DOCUMENT.COOKIE",
		"JNDI:LDAP", "PICKLE.LOADS", "RM -RF /",
	}
	out := make([][]byte, len(sigs))
	for i, s := range sigs {
		out[i] = []byte(s)
	}
	return out
}

// Traffic generation ---------------------------------------------------

// TrafficConfig controls synthetic stream generation.
type TrafficConfig struct {
	// Bytes is the stream length.
	Bytes int
	// MatchEvery plants one dictionary pattern roughly every this many
	// bytes (0 = no planted matches). Security traffic is mostly
	// benign, so sparse planting is the realistic regime.
	MatchEvery int
	// Dictionary supplies the patterns to plant.
	Dictionary [][]byte
	// Seed makes generation deterministic.
	Seed int64
}

// Traffic generates a benign-noise stream with planted dictionary
// occurrences, returning the stream and the number planted.
func Traffic(cfg TrafficConfig) ([]byte, int, error) {
	if cfg.Bytes < 0 {
		return nil, 0, fmt.Errorf("workload: negative traffic size")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]byte, cfg.Bytes)
	letters := []byte("abcdefghijklmnopqrstuvwxyz 0123456789.,;:!?")
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	planted := 0
	if cfg.MatchEvery > 0 && len(cfg.Dictionary) > 0 {
		for pos := cfg.MatchEvery; pos < cfg.Bytes; pos += cfg.MatchEvery {
			p := cfg.Dictionary[rng.Intn(len(cfg.Dictionary))]
			if pos+len(p) > cfg.Bytes {
				break
			}
			copy(out[pos:], p)
			planted++
		}
	}
	return out, planted, nil
}

// AdversarialBMH builds an input that degrades Boyer-Moore-family
// matchers to their quadratic worst case against the given pattern:
// long runs that almost match, defeating the skip heuristics. This is
// the "overload attack based on malicious input" the paper cites as
// the reason security products prefer DFAs.
func AdversarialBMH(pattern []byte, n int) []byte {
	if len(pattern) == 0 || n <= 0 {
		return nil
	}
	// Repeat the pattern's first byte everywhere, then sprinkle the
	// pattern's tail minus one byte so alignments shift by one.
	out := make([]byte, n)
	for i := range out {
		out[i] = pattern[len(pattern)-1]
	}
	return out
}

// InterleavedStreams cuts a block of traffic into 16 equal streams
// for tile-style scanning.
func InterleavedStreams(data []byte) ([][]byte, error) {
	if len(data)%16 != 0 {
		return nil, fmt.Errorf("workload: length %d not divisible by 16", len(data))
	}
	per := len(data) / 16
	out := make([][]byte, 16)
	for i := range out {
		out[i] = data[i*per : (i+1)*per]
	}
	return out, nil
}
