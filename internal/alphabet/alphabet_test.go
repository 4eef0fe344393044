package alphabet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCaseFold32Shape(t *testing.T) {
	r := CaseFold32()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Classes != 32 || r.Width != 32 {
		t.Fatalf("classes=%d width=%d", r.Classes, r.Width)
	}
}

func TestCaseFold32FoldsCase(t *testing.T) {
	r := CaseFold32()
	for c := byte('a'); c <= 'z'; c++ {
		upper := c - 'a' + 'A'
		if r.Map[c] != r.Map[upper] {
			t.Fatalf("%c and %c not folded", c, upper)
		}
	}
	// Distinct letters stay distinct.
	for a := byte('A'); a <= 'Z'; a++ {
		for b := a + 1; b <= 'Z'; b++ {
			if !r.Distinguishes(a, b) {
				t.Fatalf("%c and %c collapsed", a, b)
			}
		}
	}
}

func TestCaseFold32MatchesPaperRange(t *testing.T) {
	// The paper folds into 0x40-0x5F; our symbols are the low 5 bits of
	// that range, so 'A' (0x41) must map to 1 and '_' (0x5F) to 31.
	r := CaseFold32()
	if r.Map['A'] != 1 || r.Map['Z'] != 26 || r.Map['_'] != 31 || r.Map['@'] != 0 {
		t.Fatalf("mapping: A=%d Z=%d _=%d @=%d", r.Map['A'], r.Map['Z'], r.Map['_'], r.Map['@'])
	}
}

func TestIdentity(t *testing.T) {
	r := Identity()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if r.Map[i] != byte(i) {
			t.Fatalf("identity broken at %d", i)
		}
	}
}

func TestFromPatternsMinimal(t *testing.T) {
	pats := [][]byte{[]byte("VIRUS"), []byte("WORM")}
	r, err := FromPatterns(pats, false, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Distinct pattern bytes used: V I R U S W O M = 8, plus "other".
	if r.Classes != 9 {
		t.Fatalf("classes = %d, want 9", r.Classes)
	}
	if r.Width != 32 {
		t.Fatalf("width = %d", r.Width)
	}
	// Pattern bytes must be pairwise distinct.
	used := "VIRUSWOM"
	for i := 0; i < len(used); i++ {
		for j := i + 1; j < len(used); j++ {
			if !r.Distinguishes(used[i], used[j]) {
				t.Fatalf("%c and %c collapsed", used[i], used[j])
			}
		}
	}
	// Unused bytes share class 0.
	if r.Map['x'] != 0 || r.Map[0x00] != 0 || r.Map[0xFF] != 0 {
		t.Fatal("unused bytes not in class 0")
	}
}

func TestFromPatternsCaseFold(t *testing.T) {
	r, err := FromPatterns([][]byte{[]byte("Attack")}, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Map['a'] != r.Map['A'] {
		t.Fatal("case not folded")
	}
	if r.Map['t'] != r.Map['T'] {
		t.Fatal("case not folded for t")
	}
}

func TestFromPatternsOverflow(t *testing.T) {
	var big []byte
	for i := 0; i < 40; i++ {
		big = append(big, byte(i))
	}
	if _, err := FromPatterns([][]byte{big}, false, 32); err == nil {
		t.Fatal("expected overflow error")
	}
	if _, err := FromPatterns(nil, false, 1); err == nil {
		t.Fatal("maxClasses 1 accepted")
	}
	if _, err := FromPatterns(nil, false, 300); err == nil {
		t.Fatal("maxClasses 300 accepted")
	}
}

func TestApplyAndReduce(t *testing.T) {
	r := CaseFold32()
	src := []byte("AbC")
	dst := make([]byte, 3)
	if n := r.Apply(dst, src); n != 3 {
		t.Fatalf("n = %d", n)
	}
	want := []byte{1, 2, 3}
	if !bytes.Equal(dst, want) {
		t.Fatalf("dst = %v want %v", dst, want)
	}
	if !bytes.Equal(r.Reduce(src), want) {
		t.Fatal("Reduce mismatch")
	}
	// Short destination truncates.
	short := make([]byte, 2)
	if n := r.Apply(short, src); n != 2 {
		t.Fatalf("short n = %d", n)
	}
}

// Property: any reduction from FromPatterns maps every byte into range
// and preserves equality of pattern matching alphabets: two pattern
// bytes map to the same class iff they are the same (canonical) byte.
func TestFromPatternsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		r, err := FromPatterns([][]byte{raw}, false, 256)
		if err != nil {
			return true // too many classes for the cap; fine
		}
		if r.Validate() != nil {
			return false
		}
		for i := 0; i < len(raw); i++ {
			for j := 0; j < len(raw); j++ {
				same := raw[i] == raw[j]
				if (r.Map[raw[i]] == r.Map[raw[j]]) != same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CaseFold32 output is always < 32.
func TestCaseFoldRangeProperty(t *testing.T) {
	r := CaseFold32()
	f := func(b byte) bool { return r.Map[b] < 32 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ForDictionary picks the 32-class regime when the patterns fit it and
// widens to 256 classes otherwise — the shared fallback policy of
// system composition and the shard planner.
func TestForDictionaryFallback(t *testing.T) {
	narrow, err := ForDictionary([][]byte{[]byte("virus"), []byte("WORM")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Width != 32 || narrow.Classes > 32 {
		t.Fatalf("narrow dictionary got width %d classes %d", narrow.Width, narrow.Classes)
	}
	// 40+ distinct symbols cannot fit 32 classes: must widen, not fail.
	var wide []byte
	for b := byte(0); b < 48; b++ {
		wide = append(wide, b)
	}
	r, err := ForDictionary([][]byte{wide}, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Width != 256 || r.Classes < 48 {
		t.Fatalf("wide dictionary got width %d classes %d", r.Width, r.Classes)
	}
}

// mapFromPatterns is the map-based FromPatterns the [256] class table
// replaced, kept as the oracle for its first-appearance numbering.
func mapFromPatterns(patterns [][]byte, caseFold bool, maxClasses int) (*Reduction, error) {
	canon := func(b byte) byte {
		if caseFold && b >= 'a' && b <= 'z' {
			return b - 'a' + 'A'
		}
		return b
	}
	classOf := make(map[byte]byte)
	next := byte(1)
	for _, p := range patterns {
		for _, raw := range p {
			b := canon(raw)
			if _, ok := classOf[b]; ok {
				continue
			}
			if int(next) >= maxClasses {
				return nil, fmt.Errorf(
					"alphabet: patterns use more than %d distinct symbols", maxClasses-1)
			}
			classOf[b] = next
			next++
		}
	}
	r := &Reduction{Classes: int(next), Width: RowWidth(maxClasses)}
	for i := 0; i < 256; i++ {
		if c, ok := classOf[canon(byte(i))]; ok {
			r.Map[i] = c
		}
	}
	return r, nil
}

// TestFromPatternsMatchesMapOracle holds FromPatterns to the map-based
// construction on random dictionaries: same reduction (map, classes,
// width) or the same overflow error, with and without case folding.
func TestFromPatternsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		span := 1 + rng.Intn(256) // byte range the patterns draw from
		pats := make([][]byte, 1+rng.Intn(20))
		for i := range pats {
			pats[i] = make([]byte, 1+rng.Intn(10))
			for j := range pats[i] {
				pats[i][j] = byte(rng.Intn(span))
			}
		}
		caseFold := trial%2 == 0
		for _, maxClasses := range []int{2, 32, 256} {
			want, werr := mapFromPatterns(pats, caseFold, maxClasses)
			got, gerr := FromPatterns(pats, caseFold, maxClasses)
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("trial %d max %d: error %v, oracle %v", trial, maxClasses, gerr, werr)
			}
			if werr == nil && *got != *want {
				t.Fatalf("trial %d max %d: reduction differs from the oracle", trial, maxClasses)
			}
		}
	}
}
