package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"cellmatch/internal/parallel"
)

// splitReader hands out its payload in reads of at most the next
// length of a seeded random schedule: the packet boundaries of a body
// arriving over a network.
type splitReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1+s.rng.Intn(min(len(p), s.max))]
	}
	return s.r.Read(p)
}

// ReadFindAll scans a body as it arrives. Whatever the read sizes, the
// rung, the chunk size against the overlap, and the buffer handed in,
// it must return the body and exactly FindAll's matches, on every
// worker mode. Bodies run from empty to several chunks.
func TestReadFindAllArrival(t *testing.T) {
	dict := []string{
		"abracadab", "cadabraca", "dabracada", "racadabra",
		"abra", "cada", "bracadabr", "acadabrac",
	}
	literal := []byte(strings.Repeat("abracadabra racadabra cadabraca xyz ", 30))
	sharded, _ := shardedMatchers(t, dict, false, 4)
	matchers := map[string]*Matcher{
		"kernel":     compileTestMatcher(t, dict, Options{Engine: EngineOptions{Stride: 1, Filter: FilterOff}}),
		"compressed": compileTestMatcher(t, dict, Options{Engine: EngineOptions{Compressed: CompressedOn, Filter: FilterOff}}),
		"sharded":    sharded,
		"filter":     compileTestMatcher(t, dict, Options{Engine: EngineOptions{Filter: FilterOn}}),
	}
	regex, err := CompileRegexSearch(regexTestExprs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matchers["regex"] = regex
	for name, want := range map[string]string{"kernel": "kernel", "compressed": "compressed", "sharded": "sharded"} {
		if got := matchers[name].EngineName(); got != want {
			t.Fatalf("%s matcher runs on %q", name, got)
		}
	}
	if !matchers["filter"].FilterActive() {
		t.Fatal("filter matcher has no live front-end")
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	for name, m := range matchers {
		data := literal
		if m.IsRegex() {
			data = regexTestInput(len(literal), 5)
		}
		ov := m.sys.MaxPatternLen - 1
		for _, chunk := range []int{max(ov-2, 1), ov, ov + 1, 4*ov + 3} {
			for _, n := range []int{0, 1, ov, chunk, 2*chunk + 1, 5*chunk + 2, len(data)} {
				body := data[:min(n, len(data))]
				want, err := m.FindAll(body)
				if err != nil {
					t.Fatal(err)
				}
				readers := map[string]func() io.Reader{
					"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
					"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(body)) },
					"split": func() io.Reader {
						return &splitReader{bytes.NewReader(body), rand.New(rand.NewSource(int64(n))), 2*chunk + 1}
					},
				}
				for rname, reader := range readers {
					for wi, opts := range []ParallelOptions{
						{Pool: pool, ChunkBytes: chunk},
						{Workers: 3, ChunkBytes: chunk},
						{Workers: 1, ChunkBytes: chunk},
					} {
						// A recycled buffer holds stale bytes past what arrives.
						buf := bytes.Repeat([]byte("abra"), 3*n/4+1)
						label := fmt.Sprintf("%s/chunk=%d/n=%d/%s/opts%d", name, chunk, n, rname, wi)
						got, matches, err := m.ReadFindAll(reader(), len(body), buf, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !bytes.Equal(got, body) {
							t.Fatalf("%s: read back %d bytes that differ from the body", label, len(got))
						}
						assertEqualMatches(t, label, want, matches)
					}
				}
			}
		}
	}
}

// A body that ends short of its declared length is io.ErrUnexpectedEOF,
// with the bytes that did arrive; one that fails mid-read returns the
// reader's error.
func TestReadFindAllShortBody(t *testing.T) {
	m := compileTestMatcher(t, []string{"needle"}, Options{})
	body := []byte(strings.Repeat("a needle ", 100))
	pool := parallel.NewPool(2)
	defer pool.Close()
	opts := ParallelOptions{Pool: pool, ChunkBytes: 64}
	data, matches, err := m.ReadFindAll(bytes.NewReader(body), len(body)+10, nil, opts)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(data, body) || matches != nil {
		t.Fatalf("short body: err %v, %d bytes, %d matches", err, len(data), len(matches))
	}
	boom := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader(body[:300]), iotest.ErrReader(boom))
	data, _, err = m.ReadFindAll(r, len(body), nil, opts)
	if !errors.Is(err, boom) || !bytes.Equal(data, body[:300]) {
		t.Fatalf("failed read: err %v, %d bytes", err, len(data))
	}
}
