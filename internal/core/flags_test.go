package core

import "testing"

func TestParseStride(t *testing.T) {
	for s, want := range map[string]int{"": 0, "auto": 0, "1": 1, "2": 2} {
		got, err := ParseStride(s)
		if err != nil || got != want {
			t.Fatalf("ParseStride(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := ParseStride("3"); err == nil {
		t.Fatal("ParseStride accepted 3")
	}
}

// Stride reports the live kernel stepping; the pinned reference scan
// must agree with the default path on every tier.
func TestStrideAndPinnedReference(t *testing.T) {
	pats := []string{"alpha", "beta", "gamma"}
	data := []byte("xx alpha yy beta zz gamma alpha")

	m1, err := CompileStrings(pats, Options{Engine: EngineOptions{Stride: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Stride() != 1 {
		t.Fatalf("stride-1 matcher reports stride %d", m1.Stride())
	}
	mStt, err := CompileStrings(pats, Options{Engine: EngineOptions{DisableKernel: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mStt.Stride() != 0 {
		t.Fatalf("stt matcher reports stride %d", mStt.Stride())
	}
	if m1.System() == nil || len(m1.System().Slots) == 0 {
		t.Fatal("System() accessor returned an empty system")
	}

	want, err := m1.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Matcher{m1, mStt} {
		got, err := m.FindAllWith(data, ScanOptions{DisableFilter: true, DisableStride2: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pinned reference found %d matches, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pinned reference match %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}
