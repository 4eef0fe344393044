package core

import (
	"bytes"
	"strings"
	"testing"
)

// stride2Matcher compiles the dictionary onto the stride-2 rung and
// fails the test if the rung does not come up.
func stride2Matcher(t *testing.T, dict []string, extra func(*EngineOptions)) *Matcher {
	t.Helper()
	opts := EngineOptions{Filter: FilterOff, Stride: 2}
	if extra != nil {
		extra(&opts)
	}
	m, err := CompileStrings(dict, Options{Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Engine; got != "stride2" {
		t.Fatalf("engine = %q, want stride2", got)
	}
	return m
}

// The stride-2 rung must agree with the stt reference on every prefix
// length (both parities of the odd tail) under either InterleaveK
// meaning, and the per-request DisableStride2 opt-out, which scans the
// 1-byte loops, must agree too.
func TestStride2SplitPointEquivalence(t *testing.T) {
	dict := []string{"abra", "abracadabra", "cadab", "ra r"}
	data := []byte(strings.Repeat("abracadabra rabcad ", 10))
	_, sttM := engineMatchers(t, dict, false)
	var lanes []*Matcher
	for _, k := range []int{0, 1} {
		lanes = append(lanes, stride2Matcher(t, dict, func(o *EngineOptions) { o.InterleaveK = k }))
	}
	for n := 0; n <= len(data); n++ {
		prefix := data[:n]
		want, err := sttM.FindAll(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lanes {
			got, err := m.FindAll(prefix)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "stride2", got, want)
			got, err = m.FindAllWith(prefix, ScanOptions{DisableStride2: true})
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "stride2 DisableStride2", got, want)
		}
	}
}

// The parallel pool and reader paths over a stride-2 engine must agree
// with the reference at every chunk size — with and without the
// per-request DisableStride2 opt-out.
func TestStride2ParallelSplitPoints(t *testing.T) {
	dict := []string{"abra", "abracadabra", "dabr"}
	data := []byte(strings.Repeat("abracadabra ", 12))
	m := stride2Matcher(t, dict, nil)
	_, sttM := engineMatchers(t, dict, false)
	want, err := sttM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test data has no matches")
	}
	for chunk := 1; chunk <= len(data); chunk++ {
		for _, disable := range []bool{false, true} {
			po := ParallelOptions{Workers: 3, ChunkBytes: chunk, ScanOptions: ScanOptions{DisableStride2: disable}}
			got, err := m.FindAllParallel(data, po)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "stride2 parallel", got, want)
			streamed, err := m.ScanReader(bytes.NewReader(data), po)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "stride2 reader", streamed, want)
		}
	}
}

// Stream over the stride-2 engine must agree with the stt stream at
// every two-part cut — odd and even — and at every small chunk size.
func TestStride2StreamSplitPoints(t *testing.T) {
	dict := []string{"virus", "us vi", "rus"}
	data := []byte("virus us virus viruses rus")
	m := stride2Matcher(t, dict, nil)
	_, sttM := engineMatchers(t, dict, false)
	ref := sttM.NewStream()
	ref.Write(data)
	want := ref.Matches()
	if len(want) == 0 {
		t.Fatal("test data has no matches")
	}
	for cut := 0; cut <= len(data); cut++ {
		s := m.NewStream()
		s.Write(data[:cut])
		s.Write(data[cut:])
		assertSameMatches(t, "stride2 stream cut", s.Matches(), want)
	}
	for chunk := 1; chunk <= len(data); chunk++ {
		s := m.NewStream()
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			s.Write(data[off:end])
		}
		assertSameMatches(t, "stride2 stream chunks", s.Matches(), want)
		if s.BytesSeen() != len(data) {
			t.Fatalf("chunk %d: BytesSeen %d", chunk, s.BytesSeen())
		}
	}
}

// Every rung must report a consistent (EngineName, Stats().Engine,
// Stats().Stride, PairTableBytes) tuple — the serving layer surfaces
// all of them, so a mismatch is a live reporting bug.
func TestEngineNameStrideConsistency(t *testing.T) {
	cases := []struct {
		name       string
		opts       Options
		wantEngine string
		wantStride int
	}{
		{"stride2 auto", Options{}, "stride2", 2},
		{"kernel pinned", Options{Engine: EngineOptions{Stride: 1}}, "kernel", 1},
		{"stride2 forced", Options{Engine: EngineOptions{Stride: 2}}, "stride2", 2},
		{"stt", Options{Engine: EngineOptions{DisableKernel: true}}, "stt", 0},
	}
	for _, tc := range cases {
		m, err := CompileStrings([]string{"virus", "worm"}, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := m.Stats()
		if st.Engine != tc.wantEngine || m.EngineName() != tc.wantEngine {
			t.Fatalf("%s: Stats().Engine=%q EngineName()=%q, want %q",
				tc.name, st.Engine, m.EngineName(), tc.wantEngine)
		}
		if st.Stride != tc.wantStride {
			t.Fatalf("%s: Stats().Stride=%d, want %d", tc.name, st.Stride, tc.wantStride)
		}
		if (st.Engine == "stride2") != (st.PairTableBytes > 0) {
			t.Fatalf("%s: engine %q with PairTableBytes %d", tc.name, st.Engine, st.PairTableBytes)
		}
	}
}
