// Command bench measures the host cost of the traxtents simulator: wall
// nanoseconds per simulated request through composed host stacks,
// set-up time, and the live heap, on four seeded workloads (replay,
// tenants, fleet, ftl-write). A traced run adds a timing shim above the
// leaf device and reports each layer's self time, a layer ladder over
// replay's request list, and per-layer counters. Every run checks the
// simulated outputs (completions, utilization below saturation, tail
// plausibility) and fingerprints them in model.digest, which a change
// that only speeds the simulator up must leave unchanged.
//
// From the repository root:
//
//	bash bench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// builds the benchmark into .bench_build/ and runs it. Inside bench/,
// go run . takes the same flags, plus:
//
//	-json FILE            append the full result, host metadata included, as one JSON line
//	-spans FILE           where a traced run writes its span CSV
//	-compare PARENT CHANGE  compare two -json files metric by metric
//
// Each metric prints as "workload metric value unit q1=… q3=… n=…";
// the last line is a JSON summary. See README.md for the workloads,
// the metrics, and the bound rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: replay, tenants, fleet or ftl-write")
	seed := fs.Int64("seed", 1, "input seed (1 for development, 2 held out)")
	seconds := fs.Int("seconds", 20, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	jsonPath := fs.String("json", "", "append the full result as one JSON line to this file")
	spans := fs.String("spans", "", "span CSV of a traced run (default .bench_build/spans-WORKLOAD-SEED.csv)")
	cmp := fs.Bool("compare", false, "compare two -json files: -compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		ok, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		scale:    1,
		spans:    *spans,
	}
	if cfg.traced && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans-%s-%d.csv", cfg.workload, cfg.seed)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *jsonPath != "" {
		if err := appendJSON(*jsonPath, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints every metric, then the summary line: the end-to-end
// metrics BENCHMARK.json lists, or in a traced run the per-layer ones.
func report(w io.Writer, res *result) error {
	h := res.Host
	fmt.Fprintf(w, "# %s seed %d traced %v: %d timed passes of %d requests; cpu %q nproc %d GOMAXPROCS %d GOGC %s %s %s/%s\n",
		res.Workload, res.Seed, res.Traced, res.Passes, res.PassRequests,
		h.CPU, h.NProc, h.GOMAXPROCS, h.GOGC, h.Go, h.GOOS, h.GOARCH)
	fmt.Fprintf(w, "# digest %s\n", res.Digest)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# check failed: %s\n", p)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s q1=%s q3=%s n=%d\n",
			res.Workload, name, num(m.Value), m.Unit, num(m.Q1), num(m.Q3), m.N)
	}
	specs := perLayer
	if !res.Traced {
		specs = nil
		for _, s := range endToEnd {
			if s.listed {
				specs = append(specs, s)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		summary.Metrics[s.name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func appendJSON(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
