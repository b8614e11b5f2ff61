package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// loadResults reads every result a file holds, as -json appends them.
func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []result
	for {
		var r result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// compare prints, for every workload and end-to-end metric, the
// parent's and the change's medians and quartiles over their untraced
// runs, with a verdict. It reports false on any regression, any
// incorrect run, or any two runs of one workload and seed whose
// simulated digests differ.
func compare(parentPath, changePath string, w io.Writer) (bool, error) {
	parent, err := loadResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return false, err
	}
	ok := true
	digests := map[string]string{}
	for _, r := range append(slices.Clip(parent), change...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if !r.Correct {
			fmt.Fprintf(w, "incorrect run: %s: %v\n", key, r.Problems)
			ok = false
		}
		if d, seen := digests[key]; seen && d != r.Digest {
			fmt.Fprintf(w, "digest mismatch: %s: %s vs %s\n", key, d, r.Digest)
			ok = false
		}
		digests[key] = r.Digest
	}
	fmt.Fprintf(w, "%-10s %-16s %12s %25s %12s %25s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "verdict")
	for _, wl := range workloads {
		ps, cs := untracedRuns(parent, wl.name), untracedRuns(change, wl.name)
		if len(ps) == 0 || len(cs) == 0 {
			if len(ps)+len(cs) > 0 {
				fmt.Fprintf(w, "%-10s runs on one side only (parent %d, change %d)\n", wl.name, len(ps), len(cs))
			}
			continue
		}
		for _, s := range endToEnd {
			pv, cv := values(ps, s.name), values(cs, s.name)
			v := verdict(s, pv, cv)
			if v == "regressed" {
				ok = false
			}
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-10s %-16s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g]  %s\n",
				wl.name, s.name, pm, p1, p3, cm, c1, c3, v)
		}
	}
	return ok, nil
}

func untracedRuns(rs []result, workload string) []result {
	var out []result
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// verdict applies a metric's bound to two sets of runs. A spread wider
// than a non-zero bound leaves the metric unresolved, unless every
// change run beats every parent run; a zero bound regresses on any
// increase of the median.
func verdict(s metricSpec, parent, change []float64) string {
	p1, pm, p3 := quartiles(parent)
	c1, cm, c3 := quartiles(change)
	allowed := max(s.bound*math.Abs(pm), s.abs)
	worse := cm - pm
	if s.better == "higher" {
		worse = -worse
	}
	if allowed > 0 && max(p3-p1, c3-c1) > allowed {
		if allBetter(s, parent, change) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > allowed:
		return "regressed"
	case -worse > allowed:
		return "better"
	}
	return "within bound"
}

func allBetter(s metricSpec, parent, change []float64) bool {
	if s.better == "higher" {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}
