package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale runs every workload at 1/1000 of its per-pass size.
const smokeScale = 1000

func smoke(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(runConfig{workload: workload, seed: seed, traced: traced, scale: smokeScale})
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", workload, seed, traced, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d traced %v: output checks failed: %v", workload, seed, traced, res.Problems)
	}
	return res
}

// TestWorkloads runs every workload untraced and traced: the output
// checks pass, the digest is the same traced or untraced and differs
// for another seed, and every listed metric is reported.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smoke(t, w.name, 1, false)
			traced := smoke(t, w.name, 1, true)
			other := smoke(t, w.name, 2, false)
			if plain.Digest != traced.Digest {
				t.Errorf("digest %s untraced, %s traced", plain.Digest, traced.Digest)
			}
			if plain.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 share digest %s", plain.Digest)
			}
			if plain.Failed != 0 || plain.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", plain.Attempted, plain.Failed)
			}
			for _, s := range endToEnd {
				if _, ok := plain.Metrics[s.name]; !ok {
					t.Errorf("untraced run lacks %s", s.name)
				}
			}
			for _, s := range perLayer {
				if _, ok := traced.Metrics[s.name]; !ok {
					t.Errorf("traced run lacks %s", s.name)
				}
			}
			var out strings.Builder
			if err := report(&out, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary struct {
				Correct bool
				Metrics map[string]json.RawMessage
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			if !summary.Correct || len(summary.Metrics) != len(perLayer) {
				t.Errorf("summary: correct %v, %d metrics, want %d", summary.Correct, len(summary.Metrics), len(perLayer))
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var listed []metricSpec
	for _, s := range endToEnd {
		if s.listed {
			listed = append(listed, s)
		}
	}
	check := func(kind string, got []entry, want []metricSpec, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better || (g.Bound != nil) != bounds {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, s)
			}
			if bounds && *g.Bound != s.bound {
				t.Errorf("%s: bound %g, want %g", s.name, *g.Bound, s.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, listed, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// TestQuartiles pins the method to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	ns := endToEnd[0] // host_ns_per_req, 7%
	for _, c := range []struct {
		parent, change []float64
		want           string
	}{
		{[]float64{100, 101, 99}, []float64{103, 104, 102}, "within bound"},
		{[]float64{100, 101, 99}, []float64{120, 121, 119}, "regressed"},
		{[]float64{100, 101, 99}, []float64{80, 81, 79}, "better"},
		{[]float64{100, 130, 70, 100}, []float64{100, 101, 99}, "unresolved"},
		{[]float64{100, 130, 70, 100}, []float64{50, 51, 49}, "better"},
	} {
		if got := verdict(ns, c.parent, c.change); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.parent, c.change, got, c.want)
		}
	}
	errs := endToEnd[len(endToEnd)-1] // error_frac: any increase regresses
	if got := verdict(errs, []float64{0, 0}, []float64{0, 0.001}); got != "regressed" {
		t.Errorf("error_frac increase: %s", got)
	}
}

// TestCompare compares results read back from -json files: a digest
// mismatch between runs of one workload and seed fails the comparison.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	res := smoke(t, "ftl-write", 1, false)
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, p := range []string{a, a, b} {
		if err := appendJSON(p, res); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	ok, err := compare(a, b, &out)
	if err != nil || !ok {
		t.Fatalf("identical runs: ok %v, err %v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "ftl-write  host_ns_per_req") {
		t.Errorf("no host_ns_per_req row:\n%s", out.String())
	}
	res.Digest = "0"
	if err := appendJSON(b, res); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if ok, err := compare(a, b, &out); err != nil || ok || !strings.Contains(out.String(), "digest mismatch") {
		t.Errorf("digest mismatch: ok %v, err %v\n%s", ok, err, out.String())
	}
}
