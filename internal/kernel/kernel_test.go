package kernel

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
)

func testSystem(t testing.TB, patterns []string, caseFold bool) *compose.System {
	t.Helper()
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	sys, err := compose.NewSystem(bs, compose.Config{CaseFold: caseFold})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testInput(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("abcdefgh virus worm!")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func matchesEqual(a, b []dfa.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forceLanes is FindAll on the lane loop at any length, even below
// the lane rule's cut.
func forceLanes(e *Engine, data []byte) []dfa.Match {
	var out []dfa.Match
	e.scan1(data, 0, 0, laneK, &out)
	dfa.SortMatches(out)
	return out
}

// The engine must agree with compose.System.Scan on the serial loop,
// under the lane rule and on forced lanes, on inputs with
// boundary-straddling matches.
func TestFindAllLaneEquivalence(t *testing.T) {
	sys := testSystem(t, []string{"virus", "rus w", "worm", "us"}, false)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Compile(sys, Options{InterleaveK: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 17, 100, 1023, 4096} {
		data := testInput(n, int64(n))
		want, err := sys.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := serial.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d serial: kernel %d matches, scan %d", n, len(got), len(want))
		}
		if got := forceLanes(eng, data); !matchesEqual(got, want) {
			t.Fatalf("n=%d lanes: kernel %d matches, scan %d", n, len(got), len(want))
		}
		if got := eng.FindAll(data); !matchesEqual(got, want) {
			t.Fatalf("n=%d auto: kernel diverges", n)
		}
	}
}

// Count must agree with len(FindAll) on the serial loop and under the
// lane rule, and the counting form of the lane loop with both.
func TestCountEquivalence(t *testing.T) {
	for _, k := range []int{0, 1} {
		sys := testSystem(t, []string{"virus", "rus w", "worm", "us"}, false)
		eng, err := Compile(sys, Options{InterleaveK: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 17, 300, 5000} {
			data := testInput(n, int64(n)+7)
			if got, want := eng.Count(data), len(eng.FindAll(data)); got != want {
				t.Fatalf("k=%d n=%d: Count %d, FindAll %d", k, n, got, want)
			}
			if got, want := eng.scan1(data, 0, 0, laneK, nil), len(forceLanes(eng, data)); got != want {
				t.Fatalf("k=%d n=%d: lane count %d, lane FindAll %d", k, n, got, want)
			}
			want, err := sys.CountMatches(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.Count(data); got != want {
				t.Fatalf("k=%d n=%d: Count %d, system %d", k, n, got, want)
			}
		}
	}
}

// Case folding is baked into the byte→class map.
func TestCaseFoldBaked(t *testing.T) {
	sys := testSystem(t, []string{"ViRuS"}, true)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.FindAll([]byte("a vIrUs and a VIRUS"))
	if len(got) != 2 {
		t.Fatalf("case-folded matches = %d, want 2", len(got))
	}
	want, err := sys.Scan([]byte("a vIrUs and a VIRUS"))
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, want) {
		t.Fatal("kernel diverges from scan under case folding")
	}
}

// Multi-slot systems (dictionary larger than one tile budget) compile
// one table per slot and merge matches identically.
func TestMultiSlot(t *testing.T) {
	var pats [][]byte
	for i := 0; i < 40; i++ {
		p := bytes.Repeat([]byte{byte('a' + i%8)}, 3)
		p = append(p, byte('a'+(i/8)%8), byte('a'+i%8))
		pats = append(pats, p)
	}
	sys, err := compose.NewSystem(pats, compose.Config{MaxStatesPerTile: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Slots) < 2 {
		t.Fatalf("want multi-slot system, got %d slots", len(sys.Slots))
	}
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Tables) != len(sys.Slots) {
		t.Fatalf("tables %d != slots %d", len(eng.Tables), len(sys.Slots))
	}
	data := testInput(2000, 99)
	want, err := sys.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.FindAll(data); !matchesEqual(got, want) {
		t.Fatal("multi-slot kernel diverges")
	}
	if got := forceLanes(eng, data); !matchesEqual(got, want) {
		t.Fatal("multi-slot kernel diverges on lanes")
	}
	var serial []dfa.Match
	eng.scan1(data, 0, 0, 1, &serial)
	dfa.SortMatches(serial)
	if !matchesEqual(serial, want) {
		t.Fatal("multi-slot kernel diverges on the serial loop")
	}
}

func TestBudgetFallback(t *testing.T) {
	sys := testSystem(t, []string{"abcdefgh"}, false)
	if _, err := Compile(sys, Options{MaxTableBytes: 64}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if _, err := Compile(sys, Options{}); err != nil {
		t.Fatalf("default budget rejected a tiny dictionary: %v", err)
	}
}

func TestTableValidateAndAlignment(t *testing.T) {
	sys := testSystem(t, []string{"abc", "bca"}, false)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range eng.Tables {
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(&tab.Entries[0])); addr%64 != 0 {
			t.Fatalf("entries not cache-line aligned: %#x", addr)
		}
		if tab.Width&(tab.Width-1) != 0 || tab.Width < tab.Classes {
			t.Fatalf("bad width %d for %d classes", tab.Width, tab.Classes)
		}
	}
}

// ScanCarry across arbitrary cut points must equal a one-shot scan.
func TestScanCarrySplits(t *testing.T) {
	sys := testSystem(t, []string{"virus", "us v"}, false)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := eng.Tables[0]
	data := []byte("virus us virus a us virus")
	var whole []dfa.Match
	tab.ScanCarry(data, tab.StartRow(), func(pid int32, end int) {
		whole = append(whole, dfa.Match{Pattern: pid, End: end})
	})
	for cut := 0; cut <= len(data); cut++ {
		var got []dfa.Match
		cur := tab.StartRow()
		cur = tab.ScanCarry(data[:cut], cur, func(pid int32, end int) {
			got = append(got, dfa.Match{Pattern: pid, End: end})
		})
		tab.ScanCarry(data[cut:], cur, func(pid int32, end int) {
			got = append(got, dfa.Match{Pattern: pid, End: cut + end})
		})
		if !matchesEqual(got, whole) {
			t.Fatalf("cut %d: carry scan diverges (%v vs %v)", cut, got, whole)
		}
	}
}

// Serialize → reload must reproduce the table exactly: same geometry,
// same entries, same matches.
func TestImageRoundTrip(t *testing.T) {
	sys := testSystem(t, []string{"worm", "ormwo"}, true)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := eng.Tables[0]
	back, err := FromBytes(orig.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Classes != orig.Classes || back.Width != orig.Width ||
		back.States != orig.States || back.start != orig.start ||
		back.ByteClass != orig.ByteClass {
		t.Fatal("geometry does not round-trip")
	}
	if !reflect.DeepEqual(back.Entries, orig.Entries) {
		t.Fatal("entries do not round-trip")
	}
	if !reflect.DeepEqual(back.Outs, orig.Outs) {
		t.Fatal("output sets do not round-trip")
	}
	data := []byte("a worm wormwormWORMworm")
	var a, b []dfa.Match
	orig.scanSerial(data, 0, 0, &a)
	back.scanSerial(data, 0, 0, &b)
	if !matchesEqual(a, b) {
		t.Fatalf("reloaded table scans differently: %v vs %v", b, a)
	}
}

func TestFromBytesRejectsCorruption(t *testing.T) {
	sys := testSystem(t, []string{"ab"}, false)
	eng, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := eng.Tables[0].Bytes()
	if _, err := FromBytes(img[:10]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := FromBytes(append([]byte(nil), img[:len(img)-1]...)); err == nil {
		t.Fatal("short image accepted")
	}
	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	if _, err := FromBytes(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Flip an entry to point out of range.
	bad = append([]byte(nil), img...)
	entryOff := len(imgMagic) + 16 + 256
	bad[entryOff+3] = 0xFF
	if _, err := FromBytes(bad); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestInterleaveForHeuristic(t *testing.T) {
	sys := testSystem(t, []string{"abc"}, false)
	auto, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k := auto.InterleaveFor(laneMinBytes - 1); k != 1 {
		t.Fatalf("small input picked k=%d", k)
	}
	if k := auto.InterleaveFor(1 << 20); k != laneK {
		t.Fatalf("large input picked k=%d", k)
	}
	// Any InterleaveK but 1 applies the same rule: a stored 7 from an
	// older artifact no longer forces seven lanes.
	other, err := Compile(sys, Options{InterleaveK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k := other.InterleaveFor(10); k != 1 {
		t.Fatalf("InterleaveK 7, 10 bytes: k=%d, want 1", k)
	}
	if k := other.InterleaveFor(1 << 20); k != laneK {
		t.Fatalf("InterleaveK 7, 1 MiB: k=%d, want %d", k, laneK)
	}
	serial, err := Compile(sys, Options{InterleaveK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k := serial.InterleaveFor(1 << 20); k != 1 {
		t.Fatalf("InterleaveK 1, 1 MiB: k=%d, want 1", k)
	}
}
