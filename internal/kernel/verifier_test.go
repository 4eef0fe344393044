package kernel

import (
	"math/rand"
	"testing"

	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
)

// contractVerifier is one row of the Verifier contract table: an
// implementation plus the identity it must report.
type contractVerifier struct {
	label  string
	v      Verifier
	name   string
	stride int
	units  int
}

// contractFixture compiles one dictionary onto every Verifier
// implementation: dense kernel, stride-2, the stride-2 engine's 1-byte
// view, compressed rows, sharded kernels (>= 2 shards), and the stt
// adapter. Patterns overlap each other (prefix, suffix and containment)
// and the 6-class alphabet auto-qualifies for pair tables.
func contractFixture(t *testing.T) ([]contractVerifier, *STT, *compose.System) {
	t.Helper()
	pats := [][]byte{
		[]byte("aaaaaaaa"), []byte("bbbbbbbb"), []byte("cccccccc"), []byte("dddddddd"),
		[]byte("aaaabbbb"), []byte("ccccdddd"), []byte("abcd"), []byte("dcba"), []byte("ab"), []byte("e"),
	}
	sys, err := compose.NewSystem(pats, compose.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Compile(sys, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	stride2, err := Compile(sys, Options{Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stride2.Stride() != 2 {
		t.Fatalf("fixture did not reach the stride-2 rung (stride %d)", stride2.Stride())
	}
	comp, err := CompileCompressed(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := CompileSharded(pats, ShardConfig{MaxTableBytes: 16 * sys.Red.KernelRowBytes()})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() < 2 {
		t.Fatalf("fixture budget did not force sharding: %d shards", sharded.Shards())
	}
	stt := NewSTT(sys)
	return []contractVerifier{
		{"dense", dense, "kernel", 1, 1},
		{"stride2", stride2, "stride2", 2, 1},
		{"stride2-1byte-view", OneByte(stride2), "kernel", 1, 1},
		{"compressed", comp, "compressed", 1, 1},
		{"sharded", sharded, "sharded", 1, sharded.Shards()},
		{"stt", stt, "stt", 0, 1},
	}, stt, sys
}

// contractInput draws from the fixture's alphabet plus one byte no
// pattern uses, so matches are dense and straddle every cut.
func contractInput(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("aaabbbcccdddex")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

// Every Verifier implementation must agree with the stt adapter on
// FindAll and Count, on the per-unit chunk scan merged over all units
// at every dedupe value, and on ScanCarry at every cut point; and
// report its own rung identity. The stt adapter itself is anchored to
// compose.System.Scan.
func TestVerifierContract(t *testing.T) {
	rows, stt, sys := contractFixture(t)
	// 2200 bytes: long enough that the 1-byte loops take the lane path
	// (laneMinBytes) as well as the serial path on the short lengths.
	lengths := []int{0, 1, 2, 7, 8, 9, 255, 2200}
	inputs := make([][]byte, len(lengths))
	for i, n := range lengths {
		inputs[i] = contractInput(n, int64(n)+3)
		want, err := sys.Scan(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := stt.FindAll(inputs[i]); !matchesEqual(got, want) {
			t.Fatalf("n=%d: stt adapter FindAll diverged from compose.System.Scan: %d vs %d matches", n, len(got), len(want))
		}
	}
	piece := inputs[len(inputs)-1]
	short := inputs[len(inputs)-2]
	const base = 1000
	for _, r := range rows {
		t.Run(r.label, func(t *testing.T) {
			v := r.v
			if v.Name() != r.name || v.Stride() != r.stride || v.Units() != r.units {
				t.Fatalf("identity = (%q, stride %d, %d units), want (%q, %d, %d)",
					v.Name(), v.Stride(), v.Units(), r.name, r.stride, r.units)
			}
			if fp := v.Footprint(); (fp.Resident > 0) != (r.name != "stt") {
				t.Fatalf("footprint %+v: resident must be positive exactly on table rungs", fp)
			}
			for i, data := range inputs {
				want := stt.FindAll(data)
				if got := v.FindAll(data); !matchesEqual(got, want) {
					t.Fatalf("n=%d: FindAll %d matches, want %d", lengths[i], len(got), len(want))
				}
				if got := v.Count(data); got != len(want) {
					t.Fatalf("n=%d: Count %d, want %d", lengths[i], got, len(want))
				}
			}
			for _, p := range [][]byte{short, piece} {
				for dedupe := 0; dedupe <= len(p); dedupe++ {
					want := stt.ScanUnit(0, p, base, dedupe)
					dfa.SortMatches(want)
					var got []dfa.Match
					for u := 0; u < v.Units(); u++ {
						got = append(got, v.ScanUnit(u, p, base, dedupe)...)
					}
					dfa.SortMatches(got)
					if !matchesEqual(got, want) {
						t.Fatalf("n=%d dedupe=%d: ScanUnit merged %d matches, want %d", len(p), dedupe, len(got), len(want))
					}
				}
			}
			tables := v.CarryTables()
			if len(tables) == 0 {
				t.Fatal("no carry tables")
			}
			want := stt.FindAll(piece)
			for cut := 0; cut <= len(piece); cut++ {
				var got []dfa.Match
				for _, tab := range tables {
					off := 0
					emit := func(pid int32, end int) { got = append(got, dfa.Match{Pattern: pid, End: off + end}) }
					row := tab.ScanCarry(piece[:cut], tab.StartRow(), emit)
					off = cut
					tab.ScanCarry(piece[cut:], row, emit)
				}
				dfa.SortMatches(got)
				if !matchesEqual(got, want) {
					t.Fatalf("cut=%d: ScanCarry %d matches, want %d", cut, len(got), len(want))
				}
			}
		})
	}
}

// The 1-byte view shares the stride-2 engine's tables and is the
// verifier itself on every other rung.
func TestOneByteView(t *testing.T) {
	rows, _, _ := contractFixture(t)
	for _, r := range rows {
		view := OneByte(r.v)
		if r.v.Stride() != 2 {
			if view != r.v {
				t.Fatalf("%s: 1-byte view is a new verifier, want the verifier itself", r.label)
			}
			continue
		}
		e, ok := view.(*Engine)
		if !ok || view.Stride() != 1 || &e.Tables[0] != &r.v.(*Engine).Tables[0] {
			t.Fatalf("%s: 1-byte view must be a stride-1 engine sharing the tables", r.label)
		}
	}
}
