package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"cellmatch/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dict := workload.SignatureDictionary()
	m, err := Compile(dict, Options{CaseFold: true, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: dict, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded matcher differs: %d vs %d matches", len(got), len(want))
	}
	// Stats survive too.
	if back.Stats() != m.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", back.Stats(), m.Stats())
	}
	if back.NumPatterns() != m.NumPatterns() {
		t.Fatal("pattern count differs")
	}
}

func TestSaveLoadMultiSlot(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 3500, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned Figure 3 tiles: the whole dictionary would otherwise fit
	// one host slot.
	m, err := Compile(pats, Options{CaseFold: true, MaxStatesPerTile: 1520})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Slots < 2 {
		t.Fatalf("expected multiple slots, got %d", m.Stats().Slots)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Probe with a pattern from the last slot.
	probe := append([]byte("zz"), pats[len(pats)-1]...)
	a, _ := m.Count(probe)
	b, _ := back.Count(probe)
	if a != b || a < 1 {
		t.Fatalf("counts differ after load: %d vs %d", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("not an artifact at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncations at every prefix length of a valid artifact must fail
	// cleanly (never panic, never accept).
	m, err := CompileStrings([]string{"abc", "def"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		cut := rng.Intn(len(blob))
		if _, err := Load(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Wrong magic — including the magic of a *future* version — must be
// rejected with the artifact error, not a decode panic further in.
func TestLoadRejectsWrongMagic(t *testing.T) {
	m, err := CompileStrings([]string{"abc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, magic := range []string{"CMSAV8\x00", "CMSAV0\x00", "XXXXXX\x00", "cmsav7\x00"} {
		bad := append([]byte(magic), blob[len(magic):]...)
		_, err := Load(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("magic %q accepted", magic)
		}
		if got := err.Error(); got != "core: not a cellmatch artifact" {
			t.Fatalf("magic %q: unexpected error %q", magic, got)
		}
	}
}

// Every truncation point of a valid v2 artifact — not a random sample
// — must fail cleanly.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	m, err := CompileStrings([]string{"abc", "defgh"}, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := Load(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(blob))
		}
	}
}

// A v1 artifact (no engine block) must load with zero-value
// EngineOptions — which means the dense kernel is rebuilt and live —
// and scan identically to the matcher that wrote it.
func TestLoadV1ArtifactRebuildsEngine(t *testing.T) {
	dict := workload.SignatureDictionary()
	m, err := Compile(dict, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// The v7 layout places the 20-byte engine block (disableKernel u8,
	// maxTableBytes u64, interleaveK u32, maxShards i32, filterMode u8,
	// stride u8, compressed u8) and the dictKind byte right after the
	// 13-byte options block; a v1 artifact is the same bytes without
	// either.
	optsEnd := len(savMagic) + 13
	v1 := append([]byte(nil), savMagicV1...)
	v1 = append(v1, v7[len(savMagic):optsEnd]...)
	v1 = append(v1, v7[optsEnd+21:]...)

	back, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	// Zero-value EngineOptions means the auto ladder re-runs on load:
	// the loaded matcher must land on the same rung the writer's auto
	// compile picked (for this dictionary the 1-byte kernel — its pair
	// table is past the L2 residency gate).
	if got, want := back.Stats().Engine, m.Stats().Engine; got != want {
		t.Fatalf("v1 load engine = %q, want %q (zero-value EngineOptions)", got, want)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: dict, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}
	// And a truncated v1 (cut inside where v2's engine block would
	// have been) still fails cleanly.
	if _, err := Load(bytes.NewReader(v1[:len(savMagic)+10])); err == nil {
		t.Fatal("truncated v1 accepted")
	}
}

// An artifact saved with InterleaveK 2, a value that once forced two
// lanes, still loads and keeps the stored value; it scans
// byte-identically to a matcher under the lane rule, sequentially and
// pooled, on both 1-byte and stride-2 engines, and re-saves to the same
// bytes.
func TestLoadInterleaveK2Artifact(t *testing.T) {
	dict := []string{"virus", "rus w", "worm", "us"}
	data := bytes.Repeat([]byte("a virus in a worm, rus worms "), 200)
	for _, stride := range []int{1, 2} {
		eng := EngineOptions{InterleaveK: 2, Stride: stride, Filter: FilterOff}
		m, err := CompileStrings(dict, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved := buf.Bytes()
		// Engine block: disableKernel (1 byte), maxTableBytes (8), then
		// interleaveK (4).
		if ik := binary.LittleEndian.Uint32(saved[len(savMagic)+13+1+8:]); ik != 2 {
			t.Fatalf("stride %d: artifact stores interleaveK %d, want 2", stride, ik)
		}
		back, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("stride %d: InterleaveK 2 artifact rejected: %v", stride, err)
		}
		if got := back.opts.Engine.InterleaveK; got != 2 {
			t.Fatalf("stride %d: loaded InterleaveK %d, want 2", stride, got)
		}
		eng.InterleaveK = 0
		rule, err := CompileStrings(dict, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rule.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "loaded FindAll", got, want)
		par, err := back.FindAllParallel(data, ParallelOptions{Workers: 2, ChunkBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "loaded FindAllParallel", par, want)
		var again bytes.Buffer
		if err := back.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved) {
			t.Fatalf("stride %d: re-saved artifact differs from the loaded one", stride)
		}
	}
}

// A v2 artifact (engine block without the maxShards field) must load
// with the default shard cap, so a dictionary that outgrew the dense
// budget comes back with the sharded tier live.
func TestLoadV2ArtifactGetsDefaultShardCap(t *testing.T) {
	m, err := CompileStrings([]string{"virus", "worm"}, Options{
		Engine: EngineOptions{MaxTableBytes: 1 << 16, InterleaveK: 2, MaxShards: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// Drop the trailing maxShards (4 bytes), filterMode, stride, and
	// compressed (1 byte each) fields of the 20-byte engine block plus
	// the dictKind byte, and swap the magic: that is exactly a v2
	// artifact.
	engEnd := len(savMagic) + 13 + 20
	v2 := append([]byte(nil), savMagicV2...)
	v2 = append(v2, v7[len(savMagic):engEnd-7]...)
	v2 = append(v2, v7[engEnd+1:]...)

	back, err := Load(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 artifact rejected: %v", err)
	}
	if got := back.opts.Engine.MaxShards; got != 0 {
		t.Fatalf("v2 load MaxShards = %d, want 0 (default cap)", got)
	}
	if got := back.opts.Engine.MaxTableBytes; got != 1<<16 {
		t.Fatalf("v2 load MaxTableBytes = %d", got)
	}
	want, err := m.FindAll([]byte("a virus in a worm"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll([]byte("a virus in a worm"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2-loaded matcher diverged")
	}
}

// A v3 artifact (engine block without the filterMode byte) must load
// with FilterAuto — a qualifying dictionary comes back with the
// skip-scan front-end live — and scan byte-identically.
func TestLoadV3ArtifactGetsFilterAuto(t *testing.T) {
	dict := workload.SignatureDictionary()
	m, err := Compile(dict, Options{CaseFold: true, Engine: EngineOptions{Filter: FilterOff}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// Drop the trailing filterMode, stride, and compressed bytes of the
	// 20-byte engine block plus the dictKind byte, and swap the magic:
	// that is exactly a v3 artifact.
	engEnd := len(savMagic) + 13 + 20
	v3 := append([]byte(nil), savMagicV3...)
	v3 = append(v3, v7[len(savMagic):engEnd-3]...)
	v3 = append(v3, v7[engEnd+1:]...)

	back, err := Load(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("v3 artifact rejected: %v", err)
	}
	if got := back.opts.Engine.Filter; got != FilterAuto {
		t.Fatalf("v3 load Filter = %d, want FilterAuto", got)
	}
	if !back.Stats().FilterEnabled {
		t.Fatalf("signature dictionary under FilterAuto should enable the filter: %+v", back.Stats())
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: dict, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}
	// A current blob with an out-of-range filter mode must be rejected.
	bad := append([]byte(nil), v7...)
	bad[engEnd-3] = 7
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad filter mode accepted")
	}
}

// A v4 artifact (no dictKind byte) must load as a literal dictionary
// and scan byte-identically; a current blob with an out-of-range
// dictKind must be rejected.
func TestLoadV4ArtifactIsLiteral(t *testing.T) {
	dict := workload.SignatureDictionary()
	m, err := Compile(dict, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// Drop the trailing stride and compressed bytes of the 20-byte
	// engine block and the dictKind byte right after them, and swap the
	// magic: that is exactly a v4 artifact.
	kindAt := len(savMagic) + 13 + 20
	v4 := append([]byte(nil), savMagicV4...)
	v4 = append(v4, v7[len(savMagic):kindAt-2]...)
	v4 = append(v4, v7[kindAt+1:]...)

	back, err := Load(bytes.NewReader(v4))
	if err != nil {
		t.Fatalf("v4 artifact rejected: %v", err)
	}
	if back.IsRegex() {
		t.Fatal("v4 artifact loaded as regex")
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: dict, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}

	bad := append([]byte(nil), v7...)
	bad[kindAt] = 9
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad dictionary kind accepted")
	}
}

// A v5 artifact (engine block without the stride byte) must load with
// stride auto — a qualifying dictionary comes back on the stride-2
// rung — and scan byte-identically; a current blob with an
// out-of-range stride byte must be rejected.
func TestLoadV5ArtifactGetsStrideAuto(t *testing.T) {
	// A small dictionary that passes every auto gate (classes, budget,
	// pair-table L2 residency), so stride auto demonstrably selects the
	// stride-2 rung on load.
	dict := [][]byte{
		[]byte("PANIC: runtime error"), []byte("segfault at address"),
		[]byte("disk quota exceeded"), []byte("certificate expired"),
	}
	m, err := Compile(dict, Options{CaseFold: true, Engine: EngineOptions{Stride: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// Drop the trailing stride and compressed bytes of the 20-byte
	// engine block and swap the magic: that is exactly a v5 artifact.
	engEnd := len(savMagic) + 13 + 20
	v5 := append([]byte(nil), savMagicV5...)
	v5 = append(v5, v7[len(savMagic):engEnd-2]...)
	v5 = append(v5, v7[engEnd:]...)

	back, err := Load(bytes.NewReader(v5))
	if err != nil {
		t.Fatalf("v5 artifact rejected: %v", err)
	}
	if got := back.opts.Engine.Stride; got != 0 {
		t.Fatalf("v5 load Stride = %d, want 0 (auto)", got)
	}
	if got := back.Stats().Engine; got != "stride2" {
		t.Fatalf("v5 load engine = %q, want stride2 under stride auto", got)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: dict, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v5-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}
	// A current blob with an out-of-range stride byte must be rejected.
	bad := append([]byte(nil), v7...)
	bad[engEnd-2] = 3
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad stride accepted")
	}
}

// A v6 artifact (engine block without the compressed byte) must load
// with CompressedAuto — a dictionary whose dense table overflows the
// budget comes back on the compressed rung — and scan byte-identically;
// a current blob with an out-of-range compressed byte must be rejected.
func TestLoadV6ArtifactGetsCompressedAuto(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 900, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Dense rows for 900 states overflow 48 KiB but the compressed rows
	// fit, so CompressedAuto demonstrably selects the compressed rung.
	m, err := Compile(pats, Options{CaseFold: true, Engine: EngineOptions{MaxTableBytes: 48 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Engine; got != "compressed" {
		t.Fatalf("fixture engine = %q, want compressed", got)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v7 := buf.Bytes()
	// Drop the trailing compressed byte of the 20-byte engine block and
	// swap the magic: that is exactly a v6 artifact.
	engEnd := len(savMagic) + 13 + 20
	v6 := append([]byte(nil), savMagicV6...)
	v6 = append(v6, v7[len(savMagic):engEnd-1]...)
	v6 = append(v6, v7[engEnd:]...)

	back, err := Load(bytes.NewReader(v6))
	if err != nil {
		t.Fatalf("v6 artifact rejected: %v", err)
	}
	if got := back.opts.Engine.Compressed; got != CompressedAuto {
		t.Fatalf("v6 load Compressed = %d, want CompressedAuto", got)
	}
	if got := back.Stats().Engine; got != "compressed" {
		t.Fatalf("v6 load engine = %q, want compressed under auto", got)
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: pats, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v6-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}
	// A current blob with an out-of-range compressed byte must be
	// rejected.
	bad := append([]byte(nil), v7...)
	bad[engEnd-1] = 9
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad compressed mode accepted")
	}
}

// A matcher running the sharded tier must survive Save/Load with the
// tier re-selected and the scan byte-identical — including the
// negative MaxShards sentinel that pins the stt fallback.
func TestSaveLoadShardedMatcher(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 900, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A budget far under the 900-state dense table forces the ladder
	// into the sharded tier (compressed pinned off so the cheaper rung
	// doesn't intercept).
	opts := Options{CaseFold: true, Engine: EngineOptions{
		MaxTableBytes: 48 << 10, MaxShards: 8, Compressed: CompressedOff,
	}}
	m, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Engine; got != "sharded" {
		t.Fatalf("fixture engine = %q, want sharded", got)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != m.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", back.Stats(), m.Stats())
	}
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 1 << 16, MatchEvery: 2048, Dictionary: pats, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded-loaded matcher diverged: %d vs %d matches", len(got), len(want))
	}

	// Negative MaxShards (sharding disabled) round-trips and pins stt.
	opts.Engine.MaxShards = -1
	off, err := Compile(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Stats().Engine; got != "stt" {
		t.Fatalf("MaxShards=-1 engine = %q, want stt", got)
	}
	buf.Reset()
	if err := off.Save(&buf); err != nil {
		t.Fatal(err)
	}
	offBack, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := offBack.Stats().Engine; got != "stt" {
		t.Fatalf("loaded MaxShards=-1 engine = %q, want stt", got)
	}
	if got := offBack.opts.Engine.MaxShards; got != -1 {
		t.Fatalf("MaxShards sentinel lost: %d", got)
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	m, err := CompileStrings([]string{"abc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	rng := rand.New(rand.NewSource(21))
	rejected := 0
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), blob...)
		corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		back, err := Load(bytes.NewReader(corrupt))
		if err != nil {
			rejected++
			continue
		}
		// A flip that survives validation must still yield a usable
		// matcher (no panics on use).
		if _, err := back.Count([]byte("xxabcxx")); err != nil {
			continue
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was ever rejected")
	}
}
