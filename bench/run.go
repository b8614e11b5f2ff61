package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"traxtents/internal/device/ftl"
	"traxtents/internal/device/trace"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration // timed-pass time to spend
	traced   bool
	scale    int    // divides every per-pass request count; 1 in real runs
	spans    string // CSV path for the traced run's spans; "" writes none
}

const (
	// setups is how many fresh set-ups setup_s is the median of.
	setups = 5
	// minPasses is the fewest timed passes a phase runs. The digest
	// covers the warm pass and the first minPasses timed passes, so it
	// does not depend on how many passes fit in the budget.
	minPasses = 3
	// tracedPhases share a traced run's time: the untraced phase, the
	// traced phase, fleet's whole-disk phase (skipped on the other
	// workloads), and the ladder.
	tracedPhases = 4
)

// result is one run's report, written with -json and read by -compare.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Host         host              `json:"host"`
	Passes       int               `json:"passes"`
	PassRequests int               `json:"pass_requests"`
	Correct      bool              `json:"correct"`
	Problems     []string          `json:"problems,omitempty"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	Digest       string            `json:"digest"`
	Metrics      map[string]metric `json:"metrics"`
	order        []string
}

func (r *result) put(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.order = append(r.order, name)
	r.Metrics[name] = metric{Value: v, Unit: unit, Q1: v, Q3: v, N: n}
}

func (r *result) putSamples(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.order = append(r.order, name)
	r.Metrics[name] = metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is one composition measured: a warm pass, then timed passes.
type phase struct {
	warm                passResult
	warmBefore, warmEnd layerStats // around the warm pass
	timedBefore, timed  layerStats // around the timed passes
	mem0, mem1          runtime.MemStats
	tr0, tr1            tracerTotals

	nsPerReq          []float64 // per timed pass
	requests          int64     // completed in the timed passes
	wallNs            int64     // spent in the timed passes
	attempted, failed int64     // every pass
	heapWarm          uint64    // live heap after the warm pass
	digest            uint64
	problems          []string
}

type tracerTotals struct{ passNs, callNs, leafNs, leafCalls, orphans int64 }

func (t *tracer) totals() tracerTotals {
	if t == nil {
		return tracerTotals{}
	}
	return tracerTotals{t.passNs, t.callNs, t.leafNs, t.leafCalls, t.orphans}
}

// measure runs the warm pass and then timed passes until budget is
// spent, at least minPasses of them, all on the calling goroutine.
func measure(c composition, t *tracer, budget time.Duration) (*phase, error) {
	// Bookkeeping between timed passes must not allocate, or it would
	// count in allocs_per_req: the digest is hashed after the loop, and
	// nsPerReq has room for any pass count a real run reaches.
	p := &phase{nsPerReq: make([]float64, 0, 256)}
	type digested struct {
		pr passResult
		l  layerStats
	}
	var outputs [minPasses + 1]digested
	runtime.GC()
	p.warmBefore = c.layers()
	for i := 0; ; i++ {
		if i == 1 {
			p.timedBefore = c.layers()
			p.tr0 = t.totals()
			runtime.ReadMemStats(&p.mem0)
		}
		if t != nil {
			t.beginPass()
		}
		start := time.Now()
		pr, err := c.pass(t)
		wall := time.Since(start)
		if t != nil {
			t.endPass()
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		p.attempted += int64(pr.attempted)
		p.failed += int64(pr.failed)
		if pr.completed != pr.attempted-pr.failed {
			p.problems = append(p.problems, fmt.Sprintf("pass %d: %d completions for %d accepted submissions",
				i, pr.completed, pr.attempted-pr.failed))
		}
		if i <= minPasses {
			outputs[i] = digested{pr, c.layers()}
		}
		if i == 0 {
			p.warm, p.warmEnd = pr, c.layers()
			// The live heap after the warm pass, not at the end: state
			// that grows pass by pass would otherwise make it depend on
			// how many passes the budget allowed.
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			p.heapWarm = ms.HeapAlloc
			continue
		}
		p.nsPerReq = append(p.nsPerReq, float64(wall.Nanoseconds())/float64(pr.completed))
		p.requests += int64(pr.completed)
		p.wallNs += wall.Nanoseconds()
		if i >= minPasses && time.Duration(p.wallNs) >= budget {
			break
		}
	}
	runtime.ReadMemStats(&p.mem1)
	p.tr1 = t.totals()
	p.timed = c.layers()
	h := fnv.New64a()
	for i, o := range outputs {
		// Values only (%v, shortest exact floats), so renaming a
		// counter's field keeps the digest.
		fmt.Fprintf(h, "%d %v %v\n", i, o.pr, o.l)
	}
	p.digest = h.Sum64()
	return p, nil
}

// run performs one benchmark run: set-ups, the untraced phase and, when
// traced, the phases of traced. Only a broken composition returns an
// error; failed output checks land in result.Problems.
func run(cfg runConfig) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	in, err := w.inputs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Host: hostInfo(), Metrics: map[string]metric{}}

	var comp composition
	setupS := make([]float64, setups)
	for i := range setupS {
		comp = nil
		runtime.GC()
		start := time.Now()
		if comp, err = in.setup(nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS[i] = time.Since(start).Seconds()
	}
	budget := cfg.budget
	if cfg.traced {
		budget /= tracedPhases
	}
	ph, err := measure(comp, nil, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// The composition's live heap: after the warm pass, less what stays
	// live without it (the inputs among it).
	comp = nil
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(in)
	heapLive := float64(ph.heapWarm) - float64(ms.HeapAlloc)

	res.Passes = len(ph.nsPerReq)
	res.PassRequests = ph.warm.attempted
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Digest = fmt.Sprintf("%016x", ph.digest)
	res.Problems = append(res.Problems, ph.problems...)

	res.putSamples("host_ns_per_req", "ns", ph.nsPerReq)
	res.putSamples("setup_s", "s", setupS)
	res.put("heap_live_mb", "MB", heapLive/1e6, 1)
	allocs := ratio(float64(ph.mem1.Mallocs-ph.mem0.Mallocs), float64(ph.requests))
	res.put("allocs_per_req", "count", allocs, int(ph.requests))
	modelMetrics(res, w, ph)

	if cfg.traced {
		if err := traced(cfg, w, in, ph, res); err != nil {
			return nil, err
		}
	}
	res.put("error_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), int(res.Attempted))
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// modelMetrics reports the warm pass's simulated outputs and checks
// them: the queue below saturation, the achieved rate, and the tail.
func modelMetrics(res *result, w workload, ph *phase) {
	pr := ph.warm
	n := pr.completed
	nq := 0
	if pr.quantiles {
		nq = n
	}
	iops := ratio(float64(n), pr.makespanMs) * 1000
	busy := ph.warmEnd.disk.HeadBusy - ph.warmBefore.disk.HeadBusy
	util := ratio(iops, pr.offeredPerSec) // no media model: achieved over offered
	if s := ph.warmEnd.spindles; s > 0 {
		util = ratio(busy, float64(s)*pr.makespanMs)
	}
	res.put("device.util", "ratio", util, n)
	res.put("model.mean_ms", "sim_ms", pr.meanMs, n)
	res.put("model.p50_ms", "sim_ms", pr.p50Ms, nq)
	res.put("model.p99_ms", "sim_ms", pr.p99Ms, nq)
	res.put("model.p9999_ms", "sim_ms", pr.p9999Ms, nq)
	res.put("model.iops", "sim_req/s", iops, n)
	// 53 bits, so the digest survives a JSON number exactly.
	res.put("model.digest", "hash", float64(ph.digest>>11), 1)

	if w.maxUtil > 0 && util >= w.maxUtil {
		res.problem("device utilization %.3f not below %g", util, w.maxUtil)
	}
	if w.maxP99PerService > 0 {
		service := ratio(busy, float64(ph.warmEnd.disk.Requests-ph.warmBefore.disk.Requests))
		if pr.p99Ms > w.maxP99PerService*service {
			res.problem("p99 %.2f ms exceeds %g x mean device service %.2f ms", pr.p99Ms, w.maxP99PerService, service)
		}
	}
	// A Poisson count of n arrivals is off by 1/sqrt(n) in the typical
	// case; allow 5 of that where a scaled-down run leaves n small.
	if tol := max(w.rateTol, 5/math.Sqrt(float64(n))); w.rateTol > 0 && math.Abs(iops/pr.offeredPerSec-1) > tol {
		res.problem("achieved %.2f req/s is not within %.3g of offered %g", iops, tol, pr.offeredPerSec)
	}
}

// traced runs the traced phase on a fresh composition behind the leaf
// shim, then on fleet the whole-disk phase, then the ladder, and
// reports the per-layer metrics.
func traced(cfg runConfig, w workload, in inputs, ph *phase, res *result) error {
	budget := cfg.budget / tracedPhases
	t := newTracer()
	runtime.GC()
	comp, err := in.setup(t)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	tp, err := measure(comp, t, budget)
	if err != nil {
		return fmt.Errorf("%s traced: %w", w.name, err)
	}
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Problems = append(res.Problems, tp.problems...)
	if tp.digest != ph.digest {
		res.problem("traced digest %016x differs from untraced %016x", tp.digest, ph.digest)
	}

	req := float64(tp.requests)
	d := tracerTotals{
		passNs:    tp.tr1.passNs - tp.tr0.passNs,
		callNs:    tp.tr1.callNs - tp.tr0.callNs,
		leafNs:    tp.tr1.leafNs - tp.tr0.leafNs,
		leafCalls: tp.tr1.leafCalls - tp.tr0.leafCalls,
		orphans:   tp.tr1.orphans - tp.tr0.orphans,
	}
	if d.orphans > 0 {
		res.problem("%d leaf calls outside any benchmark call", d.orphans)
	}
	// Passes also do per-pass bookkeeping outside the calls (counter
	// snapshots); allow it a fixed 50 µs a pass beside the 1%.
	gap := float64(d.passNs - d.callNs)
	if gap > max(0.01*float64(d.passNs), 50e3*float64(len(tp.nsPerReq))) {
		res.problem("device plus stack self time misses the traced total by %.2f%%", 100*gap/float64(d.passNs))
	}
	res.put("device.self_ns_per_req", "ns", float64(d.leafNs)/req, int(req))
	res.put("device.calls_per_req", "count", float64(d.leafCalls)/req, int(req))
	res.put("stack.self_ns_per_req", "ns", float64(d.callNs-d.leafNs)/req, int(req))
	_, untraced, _ := quartiles(ph.nsPerReq)
	_, withTrace, _ := quartiles(tp.nsPerReq)
	res.put("trace.overhead_frac", "ratio", (withTrace-untraced)/untraced, len(tp.nsPerReq))

	// Counters over the traced timed passes; the simulation is the same
	// as untraced, as the digest check shows.
	a, b := tp.timedBefore, tp.timed
	res.put("sched.mean_pending", "count",
		ratio(float64(b.queue.PendingAtDispatchSum-a.queue.PendingAtDispatchSum), float64(b.queue.Dispatched-a.queue.Dispatched)), int(req))
	hits, misses := b.cache.Hits-a.cache.Hits, b.cache.Misses-a.cache.Misses
	res.put("cache.hit_rate", "ratio", ratio(float64(hits), float64(hits+misses)), hits+misses)
	res.put("cache.fill_reads_per_req", "count", float64(b.cache.FillReads-a.cache.FillReads)/req, int(req))
	res.put("cache.evictions_per_req", "count", float64(b.cache.Evictions-a.cache.Evictions)/req, int(req))
	res.put("volume.deferred_frac", "ratio", float64(b.volume.Deferred-a.volume.Deferred)/req, int(req))
	res.put("event.events_per_req", "count", float64(b.events-a.events)/req, int(req))
	fs := ftl.Stats{
		DemandPages: b.ftl.DemandPages - a.ftl.DemandPages,
		CopiedPages: b.ftl.CopiedPages - a.ftl.CopiedPages,
		GCRuns:      b.ftl.GCRuns - a.ftl.GCRuns,
	}
	amp := 0.0
	if fs.DemandPages > 0 {
		amp = fs.WriteAmp()
	}
	res.put("ftl.write_amp", "ratio", amp, int(fs.DemandPages))
	res.put("ftl.gc_runs_per_req", "count", float64(fs.GCRuns)/req, int(req))
	res.put("ftl.copied_pages_per_req", "count", float64(fs.CopiedPages)/req, int(req))

	// Runtime counters come from the untraced phase.
	passes := len(ph.nsPerReq)
	res.put("runtime.allocs_per_req", "count", res.Metrics["allocs_per_req"].Value, int(ph.requests))
	res.put("runtime.gc_cycles_per_pass", "count", float64(ph.mem1.NumGC-ph.mem0.NumGC)/float64(passes), passes)
	res.put("runtime.gc_pause_frac", "ratio", ratio(float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs), float64(ph.wallNs)), passes)

	// fleet once more, untraced and over whole disks: the workload
	// without its working set, with the geometry tables in the L3.
	if f, ok := in.(*fleetIn); ok {
		whole := *f
		whole.tracks = 0
		wc, err := whole.setup(nil)
		if err != nil {
			return fmt.Errorf("fleet whole-disk set-up: %w", err)
		}
		wp, err := measure(wc, nil, budget)
		if err != nil {
			return fmt.Errorf("fleet whole-disk: %w", err)
		}
		res.Attempted += wp.attempted
		res.Failed += wp.failed
		res.Problems = append(res.Problems, wp.problems...)
		res.putSamples("fleet.wholedisk_ns_per_req", "ns", wp.nsPerReq)
	} else {
		res.put("fleet.wholedisk_ns_per_req", "ns", 0, 0)
	}

	// The ladder and the decode time always use replay's capture.
	rin, ok := in.(*replayIn)
	if !ok {
		ri, err := replayInputs(cfg.seed, cfg.scale)
		if err != nil {
			return err
		}
		rin = ri.(*replayIn)
	}
	var decodeMs []float64
	var capture trace.Trace
	for i := 0; i < setups; i++ {
		start := time.Now()
		if capture, err = trace.DecodeBinary(rin.capture); err != nil {
			return err
		}
		decodeMs = append(decodeMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	res.putSamples("trace.decode_ms", "ms", decodeMs)
	recs := capture.Records[:min(len(capture.Records), ladderRequests/cfg.scale)]
	steps, err := ladder(recs, t, budget)
	if err != nil {
		return err
	}
	for _, s := range steps {
		res.putSamples("ladder."+s.name, "ns", s.nonDevice)
	}
	for _, s := range steps {
		res.putSamples("ladder."+s.name+".total", "ns", s.total)
	}
	if cfg.spans != "" {
		if err := t.writeCSV(cfg.spans); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	return nil
}
