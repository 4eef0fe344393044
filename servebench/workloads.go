package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"cellmatch/internal/workload"
)

// spec describes one named workload: how the inputs are generated and
// how the clients drive the daemon with them.
type spec struct {
	name string
	why  string
	// listed workloads are the ones BENCHMARK.json names. An unlisted
	// one runs the same way when named on the command line but gates
	// nothing (LAYERS.md says why).
	listed bool
	// scanClients is the number of closed-loop /scan connections.
	scanClients int
	// reqBytes is the /scan payload size; the corpus is cut into
	// consecutive payloads of this size.
	reqBytes int
	// reloadEvery, when set, runs a second connection that issues delta
	// reloads on this schedule for the whole measured window. Workloads
	// without it probe reload latency after each slice of the window
	// instead, with back-to-back reloads beside untimed scans.
	reloadEvery time.Duration
	// gen builds the seeded inputs.
	gen func(seed int64) (inputs, error)
}

// inputs are everything the program under test receives: a dictionary
// (as a file), two more dictionary versions for reloads, and the corpus
// that the request payloads are cut from.
type inputs struct {
	base [][]byte // dictionary served at set-up
	// reloads are base plus one of two disjoint sets of patterns absent
	// from the corpus. Reloads alternate between them, so each one
	// removes one set and adds the other: the same work every time.
	// (Alternating with base instead mixes a slow add with a fast
	// remove, and the median of that mixture jumps between the two.)
	reloads  [2][][]byte
	caseFold bool
	corpus   []byte
}

// reloadProbe is how many probed reloads a run without scheduled
// reloads makes, spread over its slices: 30 per slice, so the slice's
// p90 is its 3rd-slowest reload.
const reloadProbe = 300

var workloads = []spec{
	{
		name:        "nids-bulk",
		listed:      true,
		why:         "paper's 1520-state NIDS dictionary on bulk traffic: kernel rung and pool fan-out do the work, filter declines",
		scanClients: 2,
		reqBytes:    256 << 10,
		gen:         genNIDS,
	},
	{
		name:        "pii-small",
		why:         "dlp-pii on 16 KiB requests: per-request and per-match costs (HTTP, filter segments, merge, JSON) dominate",
		scanClients: 2,
		reqBytes:    16 << 10,
		gen:         genPII,
	},
	{
		name:        "bigdict-churn",
		listed:      true,
		why:         "30000-state dictionary over L2 on the dense rung, scans beside scheduled delta reloads (compile and swap)",
		scanClients: 1,
		reqBytes:    256 << 10,
		reloadEvery: 250 * time.Millisecond,
		gen:         genBigDict,
	},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent seed per workload and purpose, so one
// generator's draws never shift another's.
func subSeed(seed int64, label string) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, b := range []byte(label) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return int64(h >> 1)
}

// absentLetters returns n random uppercase patterns of length 24. A
// given one occurs by chance in workload.Traffic noise with odds of
// about 26^-24 per position and is never planted; set-up proves the
// corpus free of them by comparing the references of both versions.
func absentLetters(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 24)
		for j := range p {
			p[j] = byte('A' + rng.Intn(26))
		}
		out[i] = p
	}
	return out
}

func extend(base, extra [][]byte) [][]byte {
	out := make([][]byte, 0, len(base)+len(extra))
	return append(append(out, base...), extra...)
}

// reloadPair returns base plus the first half of extra and base plus
// the second half.
func reloadPair(base, extra [][]byte) [2][][]byte {
	h := len(extra) / 2
	return [2][][]byte{extend(base, extra[:h]), extend(base, extra[h:])}
}

func genNIDS(seed int64) (inputs, error) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 1520, Seed: subSeed(seed, "nids-dict")})
	if err != nil {
		return inputs{}, err
	}
	corpus, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 8 << 20, MatchEvery: 64 << 10, Dictionary: pats, Seed: subSeed(seed, "nids-traffic"),
	})
	if err != nil {
		return inputs{}, err
	}
	return inputs{
		base:     pats,
		reloads:  reloadPair(pats, absentLetters(600, subSeed(seed, "nids-extra"))),
		caseFold: true,
		corpus:   corpus,
	}, nil
}

func genPII(seed int64) (inputs, error) {
	sc, err := workload.DLPScenario(subSeed(seed, "pii"), 4<<20)
	if err != nil {
		return inputs{}, err
	}
	// Extra card-shaped literals joined by '-' runs of 4 digits: the
	// filler only ever writes 2-6 digit runs between words, so these
	// occur only where planted, and the scenario plants none of them.
	rng := rand.New(rand.NewSource(subSeed(seed, "pii-extra")))
	extra := make([][]byte, 400)
	for i := range extra {
		p := make([]byte, 0, 19)
		for g := 0; g < 4; g++ {
			if g > 0 {
				p = append(p, '-')
			}
			for d := 0; d < 4; d++ {
				p = append(p, byte('0'+rng.Intn(10)))
			}
		}
		extra[i] = p
	}
	return inputs{
		base:     sc.Patterns,
		reloads:  reloadPair(sc.Patterns, extra),
		caseFold: sc.CaseFold,
		corpus:   sc.Corpus,
	}, nil
}

func genBigDict(seed int64) (inputs, error) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 30000, Seed: subSeed(seed, "big-dict")})
	if err != nil {
		return inputs{}, err
	}
	corpus, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 4 << 20, MatchEvery: 64 << 10, Dictionary: pats, Seed: subSeed(seed, "big-traffic"),
	})
	if err != nil {
		return inputs{}, err
	}
	return inputs{
		base:     pats,
		reloads:  reloadPair(pats, absentLetters(300, subSeed(seed, "big-extra"))),
		caseFold: true,
		corpus:   corpus,
	}, nil
}

// payloads cuts the corpus into consecutive request bodies of n bytes
// (the last one may be shorter).
func payloads(corpus []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(corpus); off += n {
		end := min(off+n, len(corpus))
		out = append(out, corpus[off:end])
	}
	return out
}

// dictFile renders a dictionary in the one-pattern-per-line format the
// daemon's dict loader reads.
func dictFile(pats [][]byte) []byte {
	var out []byte
	for _, p := range pats {
		out = append(out, p...)
		out = append(out, '\n')
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
