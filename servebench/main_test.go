package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
)

// inputDigests fingerprints everything a workload hands the program.
func inputDigests(t *testing.T, w spec, seed int64) [4]string {
	t.Helper()
	in, err := w.gen(seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return [4]string{digest(dictFile(in.base)), digest(dictFile(in.reloads[0])), digest(dictFile(in.reloads[1])), digest(in.corpus)}
}

func TestSeedRegeneratesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := inputDigests(t, w, 7), inputDigests(t, w, 7), inputDigests(t, w, 8)
			if a != b {
				t.Errorf("seed 7 generated different inputs: %v vs %v", a, b)
			}
			for i, what := range []string{"dictionary", "reload dictionary a", "reload dictionary b", "corpus"} {
				if a[i] == c[i] {
					t.Errorf("seeds 7 and 8 generated the same %s", what)
				}
			}
		})
	}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDescribe(&buf); err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -describe:\n%s", buf.Bytes())
	}
}

func TestVerifyReadsServerReplies(t *testing.T) {
	m, err := core.CompileStrings([]string{"ab\"c", "\"pattern\":"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`xx ab"c "pattern": ab"c`)
	ref, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.NewWithMatcher(m, "inline")
	body, err := json.Marshal(scanResponse(reg.Current(), data, ref))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(body, len(data), ref); err != nil {
		t.Fatal(err)
	}
	wrong := append([]core.Match(nil), ref...)
	wrong[1].Pattern = 1 - wrong[1].Pattern
	if err := verify(body, len(data), wrong); err == nil {
		t.Error("verify accepted a reply whose pattern ids differ from the reference")
	}
	if err := verify(body, len(data), ref[:2]); err == nil {
		t.Error("verify accepted a reply with more matches than the reference")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},   // overlaps the first
		{Parent: 1, Start: 90, End: 150},  // runs past the parent
		{Parent: 1, Start: 200, End: 300}, // outside the parent
	}
	if got := coveredNS(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each metric is printed with its unit and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metric{endToEnd, perLayer} {
			t.Run(w.name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				// 3 s: each of the 10 slices then spans a scheduled reload.
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "3", "-short",
					"-trace", []string{"0", "1"}[trace], "-out", out}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				printed := map[string]string{} // metric -> unit
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				want := defs
				if trace == 0 {
					want = append([]metric{{Name: "failed_frac", Unit: "frac"}}, defs...)
				}
				for _, m := range want {
					if u, ok := printed[m.Name]; !ok || u != m.Unit {
						t.Errorf("metric %s: printed with unit %q (present=%v), want %q", m.Name, u, ok, m.Unit)
					}
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("result metric %s = %+v (present=%v), want unit %q", m.Name, v, ok, m.Unit)
					}
				}
				if trace == 1 {
					checkSpans(t, filepath.Join(out, "spans-"+w.name+"-seed3.jsonl"))
				}
			})
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.Trace == 0 {
			t.Errorf("malformed span %+v", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"client.request", "server.handler", "core.findall", "filter.segments", "kernel.scan", "server.encode"} {
		if !names[n] {
			t.Errorf("no %s span in %s", n, path)
		}
	}
}
