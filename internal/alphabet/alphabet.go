// Package alphabet implements the input data reduction of Section 4 of
// the paper: folding the 256-value byte range into a small power-of-two
// symbol set so that STT rows shrink and more states fit in a tile.
//
// The paper's choice is 32 symbols ("the 32 values from 0x40 to 0x5F,
// which comprise the uppercase Latin alphabet plus other 6 characters"),
// justified by case-insensitive security filters. This package provides
// that exact folding plus a dictionary-derived reduction that computes
// the minimal symbol classes a given pattern set distinguishes.
package alphabet

import (
	"fmt"
)

// Reduction maps raw input bytes onto a reduced symbol set 0..Classes-1.
type Reduction struct {
	// Map gives the reduced symbol for each raw byte value.
	Map [256]byte
	// Classes is the number of distinct symbols in the image.
	Classes int
	// Width is the STT row width: the smallest power of two >= Classes
	// (and >= 2). Rows are Width entries wide so state pointers keep
	// free low bits.
	Width int
}

// RowWidth returns the smallest power of two >= n, minimum 2: the row
// width of a table over n symbols, in the STT tiles and the host dense
// kernel alike (so row indexes always keep bit 0 free for flags).
func RowWidth(n int) int {
	w := 2
	for w < n {
		w *= 2
	}
	return w
}

// KernelRowBytes is one state's row in the host dense kernel over r:
// RowWidth(Classes) entries of 4 bytes.
func (r *Reduction) KernelRowBytes() int { return RowWidth(r.Classes) * 4 }

// Identity returns the trivial 256-symbol (no reduction) mapping.
func Identity() *Reduction {
	r := &Reduction{Classes: 256, Width: 256}
	for i := range r.Map {
		r.Map[i] = byte(i)
	}
	return r
}

// CaseFold32 returns the paper's reduction: every byte is folded into
// the 32-value range 0x40-0x5F by forcing bit 6 set and masking to five
// bits, which maps 'a'-'z' and 'A'-'Z' onto the same 26 symbols and
// leaves 6 extra codes for punctuation classes. The reduced symbol is
// the low five bits (0..31).
func CaseFold32() *Reduction {
	r := &Reduction{Classes: 32, Width: 32}
	for i := range r.Map {
		r.Map[i] = byte(i & 0x1F)
	}
	return r
}

// FromPatterns computes the minimal reduction that keeps the bytes used
// by the given patterns distinct. All bytes not appearing in any
// pattern share one "other" class (class 0). If caseFold is set,
// ASCII letters are folded together first. An error is returned if the
// patterns need more than maxClasses distinct symbols.
func FromPatterns(patterns [][]byte, caseFold bool, maxClasses int) (*Reduction, error) {
	if maxClasses < 2 || maxClasses > 256 {
		return nil, fmt.Errorf("alphabet: maxClasses %d out of range", maxClasses)
	}
	canon := func(b byte) byte {
		if caseFold && b >= 'a' && b <= 'z' {
			return b - 'a' + 'A'
		}
		return b
	}
	// Assign classes in first-appearance order; class 0 is "other".
	// classOf is indexed by canonical byte; 0 means "not seen yet".
	var classOf [256]int
	next := 1
	for _, p := range patterns {
		for _, raw := range p {
			b := canon(raw)
			if classOf[b] != 0 {
				continue
			}
			if next >= maxClasses {
				return nil, fmt.Errorf(
					"alphabet: patterns use more than %d distinct symbols", maxClasses-1)
			}
			classOf[b] = next
			next++
		}
	}
	r := &Reduction{Classes: next, Width: RowWidth(maxClasses)}
	for i := range r.Map {
		r.Map[i] = byte(classOf[canon(byte(i))])
	}
	return r, nil
}

// FromSets computes the minimal reduction that keeps every byte
// distinction the given membership sets make: two bytes share a class
// iff every set either contains both or excludes both. This is the
// reduction regex dictionaries use — each literal/class leaf
// contributes one set, so reduced matching is exact (no aliasing).
// Classes are numbered in first-appearance order scanning bytes 0..255,
// making the mapping deterministic for a given set list.
func FromSets(sets [][256]bool) (*Reduction, error) {
	sig := make(map[string]byte, 8)
	r := &Reduction{}
	buf := make([]byte, (len(sets)+7)/8)
	for b := 0; b < 256; b++ {
		for i := range buf {
			buf[i] = 0
		}
		for i := range sets {
			if sets[i][b] {
				buf[i/8] |= 1 << (i % 8)
			}
		}
		c, ok := sig[string(buf)]
		if !ok {
			if len(sig) >= 256 {
				return nil, fmt.Errorf("alphabet: set partition exceeds 256 classes")
			}
			c = byte(len(sig))
			sig[string(buf)] = c
		}
		r.Map[b] = c
	}
	r.Classes = len(sig)
	r.Width = RowWidth(r.Classes)
	return r, nil
}

// ForDictionary returns the dictionary's preferred reduction: the
// paper's 32-symbol regime when the patterns fit it, widening to the
// full 256-class mapping otherwise (with the proportionally smaller
// per-tile state budget the Figure 3 arithmetic implies). This is the
// one fallback policy shared by system composition and the shard
// planner, so both sides classify dictionaries the same way (each
// compiled shard still derives its own, possibly narrower, reduction
// from its own pattern subset).
func ForDictionary(patterns [][]byte, caseFold bool) (*Reduction, error) {
	red, err := FromPatterns(patterns, caseFold, 32)
	if err != nil {
		return FromPatterns(patterns, caseFold, 256)
	}
	return red, nil
}

// Apply reduces src into dst (which must be at least as long) and
// returns the number of bytes written.
func (r *Reduction) Apply(dst, src []byte) int {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.Map[src[i]]
	}
	return n
}

// Reduce allocates and returns the reduced copy of src.
func (r *Reduction) Reduce(src []byte) []byte {
	dst := make([]byte, len(src))
	r.Apply(dst, src)
	return dst
}

// Validate checks internal consistency: every mapped value < Classes
// and Width is a power of two >= Classes.
func (r *Reduction) Validate() error {
	if r.Classes < 1 || r.Classes > 256 {
		return fmt.Errorf("alphabet: classes %d out of range", r.Classes)
	}
	if r.Width < r.Classes || r.Width&(r.Width-1) != 0 {
		return fmt.Errorf("alphabet: width %d invalid for %d classes", r.Width, r.Classes)
	}
	for i, c := range r.Map {
		if int(c) >= r.Classes {
			return fmt.Errorf("alphabet: byte %#x maps to %d >= %d classes", i, c, r.Classes)
		}
	}
	return nil
}

// Distinguishes reports whether the reduction keeps bytes a and b in
// different classes.
func (r *Reduction) Distinguishes(a, b byte) bool { return r.Map[a] != r.Map[b] }
