package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricSpec names one reported metric. The end-to-end specs carry the
// regression rule -compare applies: a change may be worse than its
// parent's median by max(bound × parent, abs) before it regresses.
// Those marked listed are the ones BENCHMARK.json lists; the others are
// zero on some workload, which BENCHMARK.json's relative bound cannot
// take, so only -compare gates them.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	abs    float64
	listed bool
}

var endToEnd = []metricSpec{
	{name: "host_ns_per_req", unit: "ns", better: "lower", bound: 0.07, listed: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.10, abs: 0.02, listed: true},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10, listed: true},
	{name: "allocs_per_req", unit: "count", better: "lower", bound: 0.02, abs: 0.001},
	{name: "error_frac", unit: "ratio", better: "lower"},
}

// perLayer lists the traced run's metrics, all printed on every
// workload; a layer the workload does not compose reports 0.
var perLayer = []metricSpec{
	{name: "device.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "device.calls_per_req", unit: "count", better: "lower"},
	{name: "stack.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.decode_ms", unit: "ms", better: "lower"},
	{name: "ladder.bare", unit: "ns", better: "lower"},
	{name: "ladder.faults", unit: "ns", better: "lower"},
	{name: "ladder.fcfs1", unit: "ns", better: "lower"},
	{name: "ladder.clook8", unit: "ns", better: "lower"},
	{name: "ladder.cache0", unit: "ns", better: "lower"},
	{name: "ladder.cache16", unit: "ns", better: "lower"},
	{name: "ladder.replay", unit: "ns", better: "lower"},
	{name: "sched.mean_pending", unit: "count", better: "lower"},
	{name: "cache.hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.fill_reads_per_req", unit: "count", better: "lower"},
	{name: "cache.evictions_per_req", unit: "count", better: "lower"},
	{name: "volume.deferred_frac", unit: "ratio", better: "lower"},
	{name: "event.events_per_req", unit: "count", better: "lower"},
	{name: "fleet.wholedisk_ns_per_req", unit: "ns", better: "lower"},
	{name: "ftl.write_amp", unit: "ratio", better: "lower"},
	{name: "ftl.gc_runs_per_req", unit: "count", better: "lower"},
	{name: "ftl.copied_pages_per_req", unit: "count", better: "lower"},
	{name: "runtime.allocs_per_req", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles_per_pass", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_frac", unit: "ratio", better: "lower"},
	{name: "device.util", unit: "ratio", better: "lower"},
	{name: "model.mean_ms", unit: "sim_ms", better: "lower"},
	{name: "model.p50_ms", unit: "sim_ms", better: "lower"},
	{name: "model.p99_ms", unit: "sim_ms", better: "lower"},
	{name: "model.p9999_ms", unit: "sim_ms", better: "lower"},
	{name: "model.iops", unit: "sim_req/s", better: "higher"},
	{name: "model.digest", unit: "hash", better: "lower"},
}

// metric is one measured value: the median of n samples with its
// quartiles, or a single value (q1 = q3 = value).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles returns the median and the first and third quartiles of xs
// by the method of Python's statistics.quantiles(xs, n=4), so spreads
// read the same here as in any script checking the results.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// host describes the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name; "unknown" where /proc has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
