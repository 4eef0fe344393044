package cellmatch_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cellmatch"
	"cellmatch/internal/workload"
)

func TestPublicAPIQuickstart(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"virus", "worm"},
		cellmatch.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.FindAll([]byte("a VIRUS and a worm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestEstimateCellHeadline(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"attack", "exploit"}, cellmatch.Options{Groups: 2, CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := cellmatch.EstimateCell(m, cellmatch.DefaultBlade(), 8*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	if est.SimulatedGbps < 10 {
		t.Fatalf("2-group estimate = %.2f Gbps, want >= 10 (paper headline)", est.SimulatedGbps)
	}
}

// TestCellModelOnHostSlot: a dictionary that scans as one host slot
// keeps its Figure 3 Cell model. Stats' paper fields, EstimateCell and
// Table1 equal those of the same dictionary on pinned 1520-state tiles
// — the tiling every default compile took before host slots — and the
// figures that tiling has always reported.
func TestCellModelOnHostSlot(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 6000, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	host, err := cellmatch.Compile(pats, cellmatch.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := cellmatch.Compile(pats, cellmatch.Options{CaseFold: true, MaxStatesPerTile: 1520})
	if err != nil {
		t.Fatal(err)
	}
	hs, ts := host.Stats(), tiles.Stats()
	if hs.Slots != 1 || ts.Slots != 5 {
		t.Fatalf("slots: host %d, tiled %d; want 1 and 5", hs.Slots, ts.Slots)
	}
	paper := func(m *cellmatch.Matcher) [5]int {
		s := m.Stats()
		return [5]int{s.States, s.SeriesDepth, s.TilesRequired, s.STTBytes, s.Groups}
	}
	if want := [5]int{6069, 5, 5, 776832, 1}; paper(host) != want || paper(tiles) != want {
		t.Fatalf("paper fields: host %v, tiled %v, want %v", paper(host), paper(tiles), want)
	}
	he, err := cellmatch.EstimateCell(host, cellmatch.DefaultBlade(), 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	te, err := cellmatch.EstimateCell(tiles, cellmatch.DefaultBlade(), 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if he != te || he.TilesUsed != 5 {
		t.Fatalf("EstimateCell: host %+v, tiled %+v", he, te)
	}
	hr, err := cellmatch.Table1(host)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cellmatch.Table1(tiles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hr, tr) || hr[3].TotalCycles != 77816 {
		t.Fatalf("Table1 differs on the host slot: %+v vs %+v", hr[3], tr[3])
	}
}

func TestTable1ThroughFacade(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"signature"}, cellmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cellmatch.Table1(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[3].Version != 4 {
		t.Fatalf("table shape: %d rows", len(rows))
	}
}

func TestPublicAPIStream(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"split"}, cellmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewStream()
	s.Write([]byte("spl"))
	s.Write([]byte("it!"))
	if got := s.Matches(); len(got) != 1 || got[0].End != 5 {
		t.Fatalf("stream matches = %v", got)
	}
}

func TestPublicAPIParallel(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"virus", "worm", "rm,"},
		cellmatch.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("a VIRUS and a worm, then calm. ", 2000))
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.FindAllParallel(data, cellmatch.ParallelOptions{Workers: 4, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel %d matches, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: parallel %+v, sequential %+v", i, got[i], want[i])
		}
	}
	streamed, err := m.ScanReader(bytes.NewReader(data), cellmatch.ParallelOptions{ChunkBytes: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("ScanReader %d matches, FindAll %d", len(streamed), len(want))
	}
}

func TestPublicAPIEngineOptions(t *testing.T) {
	dict := []string{"virus", "worm"}
	data := []byte("a virus in a WORM in a virus")
	kernelM, err := cellmatch.CompileStrings(dict, cellmatch.Options{
		CaseFold: true,
		Engine:   cellmatch.EngineOptions{InterleaveK: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sttM, err := cellmatch.CompileStrings(dict, cellmatch.Options{
		CaseFold: true,
		Engine:   cellmatch.EngineOptions{DisableKernel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ks, ss := kernelM.Stats(), sttM.Stats()
	if ks.Engine != "stride2" || ss.Engine != "stt" {
		t.Fatalf("engines = %q / %q", ks.Engine, ss.Engine)
	}
	if ks.Stride != 2 || ks.PairTableBytes <= 0 {
		t.Fatalf("stride-2 stats incomplete: %+v", ks)
	}
	if ks.KernelTableBytes <= 0 || !ks.TableFitsL2 || ks.AlphabetUsed < 2 {
		t.Fatalf("kernel stats incomplete: %+v", ks)
	}
	want, err := sttM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernelM.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 3 {
		t.Fatalf("kernel %d matches, stt %d, want 3", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: kernel %+v, stt %+v", i, got[i], want[i])
		}
	}
}

func TestPublicAPIBlades(t *testing.T) {
	if cellmatch.DefaultBlade().SPEs() != 8 || cellmatch.DualBlade().SPEs() != 16 {
		t.Fatal("blade shapes")
	}
	n, err := cellmatch.MinimumSPEsFor(10, 5.11)
	if err != nil || n != 2 {
		t.Fatalf("min SPEs = %d (%v)", n, err)
	}
}

func TestPublicAPIRegex(t *testing.T) {
	rs, err := cellmatch.CompileRegexes([]string{"a+b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.MatchWhole([]byte("aaab")); len(got) != 1 {
		t.Fatalf("regex match = %v", got)
	}
}

func TestPublicAPIServing(t *testing.T) {
	m, err := cellmatch.CompileStrings([]string{"virus"}, cellmatch.Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := cellmatch.NewPool(2)
	defer pool.Close()
	got, err := m.FindAllParallel([]byte(strings.Repeat("a VIRUS here ", 500)),
		cellmatch.ParallelOptions{ChunkBytes: 256, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("pool scan found %d, want 500", len(got))
	}

	reg := cellmatch.NewMatcherRegistry(m, "inline")
	srv, err := cellmatch.NewServer(cellmatch.ServerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream",
		strings.NewReader("one virus"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr cellmatch.ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 1 || sr.Generation != 1 {
		t.Fatalf("served scan = %+v", sr)
	}
}
