package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
	"traxtents/internal/volume"
	"traxtents/internal/workload/driver"
)

// workload is one benchmark input family: a composition of layers and
// the load that drives it. Load is open Poisson in virtual time; the
// host side runs each pass as one batch.
type workload struct {
	name string
	why  string
	// inputs generates the seed's inputs. It is untimed: it stands for
	// data the program would be handed. scale divides every per-pass
	// request count (1 in real runs).
	inputs func(seed int64, scale int) (inputs, error)
	// maxUtil bounds the simulated device utilization of the warm pass
	// (0: no bound), keeping every latency from a queue below
	// saturation.
	maxUtil float64
	// maxP99PerService bounds p99 response as a multiple of the mean
	// device service time (0: no bound).
	maxP99PerService float64
	// rateTol bounds |achieved/offered - 1| (0: no bound).
	rateTol float64
}

var workloads = []workload{
	{
		name:             "replay",
		why:              "full single-spindle host stack: cache and queue do most host work; the TRXB decode is set-up",
		inputs:           replayInputs,
		maxUtil:          0.6,
		maxP99PerService: 20,
	},
	{
		name:    "tenants",
		why:     "volume does most work: name lookup, token buckets, held-release heap, span join, fair tags; no cache or codec",
		inputs:  tenantsInputs,
		maxUtil: 0.8,
	},
	{
		name:    "fleet",
		why:     "event core and 1024 per-spindle queues dominate; disk state exceeds CPU caches where replay's one disk fits",
		inputs:  fleetInputs,
		maxUtil: 0.8,
	},
	{
		name:    "ftl-write",
		why:     "write-only, GC-bound flash with no media model: sched and driver as in replay, but a flash leaf and writes",
		inputs:  ftlInputs,
		rateTol: 0.02,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are one seed's generated inputs.
type inputs interface {
	// setup builds a fresh composition: the work setup_s times. A
	// non-nil tracer gets a leaf shim directly above the leaf device.
	setup(t *tracer) (composition, error)
}

// composition is one set-up stack, run pass after pass; each pass
// continues in virtual time where the previous one stopped.
type composition interface {
	pass(t *tracer) (passResult, error)
	// layers snapshots every layer's cumulative simulated counters.
	layers() layerStats
}

// passResult is one pass's simulated outcome. Response statistics are
// in virtual milliseconds; the percentiles are zero unless quantiles.
type passResult struct {
	attempted, failed, completed  int
	makespanMs                    float64
	meanMs, p50Ms, p99Ms, p9999Ms float64
	quantiles                     bool
	offeredPerSec                 float64
}

// layerStats holds the cumulative simulated counters of every layer a
// composition has; absent layers stay zero.
type layerStats struct {
	spindles int
	disk     sim.Stats // summed over spindles
	cache    cache.Stats
	queue    sched.Stats // summed over queues
	volume   volume.VolumeStats
	events   uint64
	ftl      ftl.Stats
}

func (l *layerStats) addDisk(d *sim.Disk) {
	s := d.Stats()
	l.spindles++
	l.disk.Requests += s.Requests
	l.disk.CacheHits += s.CacheHits
	l.disk.SectorsIn += s.SectorsIn
	l.disk.SectorsOut += s.SectorsOut
	l.disk.HeadBusy += s.HeadBusy
	l.disk.BusBusy += s.BusBusy
	l.disk.Transfer += s.Transfer
}

func (l *layerStats) addQueue(q *sched.Queue) {
	s := q.Stats()
	l.queue.Submitted += s.Submitted
	l.queue.Dispatched += s.Dispatched
	l.queue.MaxPending = max(l.queue.MaxPending, s.MaxPending)
	l.queue.PendingAtDispatchSum += s.PendingAtDispatchSum
}

const (
	diskModel = "Quantum-Atlas10KII"
	window    = 4096 // Submit/Drain window of the replay driver and ladder
)

// newDisks builds n disks sharing one geometry layout, as
// model.Model.NewDisk does. The layout is built afresh on every call:
// NewDisk memoizes it process-wide, so only a process's first set-up
// would pay for the tables, and work moved into them would not show in
// setup_s.
func newDisks(n int) ([]*sim.Disk, error) {
	m, err := model.Get(diskModel)
	if err != nil {
		return nil, err
	}
	l, err := geom.Build(m.Geometry())
	if err != nil {
		return nil, err
	}
	disks := make([]*sim.Disk, n)
	for i := range disks {
		mm, err := m.Mechanism()
		if err != nil {
			return nil, err
		}
		disks[i] = sim.New(l, mm, m.DefaultConfig())
	}
	return disks, nil
}

// ---- replay ----

const (
	replayRequests = 1_000_000
	replayRate     = 200.0 // req/s
	replayStep     = 2048  // random-walk step bound, sectors
	replaySegment  = 16384 // requests between walk restarts
	replayMinIO    = 8
	replayMaxIO    = 64
	replayWrites   = 0.25
	replayCacheMB  = 16
	replayDepth    = 8
)

type replayIn struct {
	capture []byte // TRXB
}

func replayInputs(seed int64, scale int) (inputs, error) {
	tr, err := replayCapture(seed, replayRequests/scale)
	if err != nil {
		return nil, err
	}
	data, err := trace.EncodeBinary(tr)
	if err != nil {
		return nil, err
	}
	return &replayIn{capture: data}, nil
}

// replayCapture generates the seeded capture: an LBN random walk of
// ±replayStep sectors, so its footprint exceeds the cache while its
// short-range locality fits. The walk restarts every replaySegment
// requests, once in each equal slice of the disk (in seeded order), so
// every seed visits the same mix of zones: track size, and with it the
// cost of a whole-track fill, varies by zone.
func replayCapture(seed int64, n int) (trace.Trace, error) {
	m, err := model.Get(diskModel)
	if err != nil {
		return trace.Trace{}, err
	}
	l, err := m.Layout()
	if err != nil {
		return trace.Trace{}, err
	}
	capacity := l.NumLBNs()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	segments := (n + replaySegment - 1) / replaySegment
	order := rng.Perm(segments)
	var lbn int64
	at := 0.0
	for i := range recs {
		if i%replaySegment == 0 {
			slice := float64(order[i/replaySegment]) + rng.Float64()
			lbn = int64(slice / float64(segments) * float64(capacity))
		}
		sectors := replayMinIO + rng.Intn(replayMaxIO-replayMinIO+1)
		lbn += rng.Int63n(2*replayStep+1) - replayStep
		lbn = min(max(lbn, 0), capacity-int64(sectors))
		recs[i] = trace.Record{LBN: lbn, Sectors: sectors, Write: rng.Float64() < replayWrites, Issue: at}
		at += rng.ExpFloat64() * 1000 / replayRate
	}
	return trace.Trace{Name: m.Name, Capacity: capacity, SectorSize: l.G.SectorSize, Records: recs}, nil
}

type replayRun struct {
	disk *sim.Disk
	st   *stack.Stack
	rp   *driver.Replay
	n    int
}

func (in *replayIn) setup(t *tracer) (composition, error) {
	tr, err := trace.DecodeBinary(in.capture)
	if err != nil {
		return nil, err
	}
	disks, err := newDisks(1)
	if err != nil {
		return nil, err
	}
	d := disks[0]
	inj, err := faults.New(shim(d, t))
	if err != nil {
		return nil, err
	}
	st, err := stack.Config{Depth: replayDepth, Scheduler: "clook", CacheMB: replayCacheMB}.Build(inj)
	if err != nil {
		return nil, err
	}
	rp, err := driver.NewReplay(st, tr, driver.ReplayConfig{Window: window})
	if err != nil {
		return nil, err
	}
	return &replayRun{disk: d, st: st, rp: rp, n: len(tr.Records)}, nil
}

func (r *replayRun) pass(t *tracer) (passResult, error) {
	m, err := runReplay(r.rp, t)
	if err != nil {
		return passResult{}, err
	}
	return replayResult(m, r.n, replayRate), nil
}

func runReplay(rp *driver.Replay, t *tracer) (m driver.ReplayMetrics, err error) {
	err = t.call("driver.Replay.Run", func() error {
		m, err = rp.Run()
		return err
	})
	return m, err
}

func replayResult(m driver.ReplayMetrics, n int, rate float64) passResult {
	return passResult{
		attempted: n, completed: m.Requests, makespanMs: m.MakespanMs,
		meanMs: m.MeanResponseMs, p50Ms: m.P50ResponseMs, p99Ms: m.P99ResponseMs, p9999Ms: m.P9999ResponseMs,
		quantiles: true, offeredPerSec: rate,
	}
}

func (r *replayRun) layers() layerStats {
	var l layerStats
	l.addDisk(r.disk)
	l.addQueue(r.st.Queue())
	l.cache = r.st.Stats()
	return l
}

// ---- tenants ----

const (
	tenantRequests = 500_000
	tenantCount    = 1024
	tenantShards   = 2
	tenantExtents  = 4 // mean-track extents per volume
	tenantRate     = 200.0
	tenantDepth    = 16
	tenantShaping  = 4 // odd tenants' IOPS limit in multiples of their offered share
	tenantBurst    = 4
)

type tenantsIn struct {
	tenant []int32
	pick   []uint32 // extent choice, reduced modulo the tenant's extent count
	offs   []float64
}

func tenantsInputs(seed int64, scale int) (inputs, error) {
	n := tenantRequests / scale
	in := &tenantsIn{tenant: make([]int32, n), pick: make([]uint32, n), offs: make([]float64, n)}
	rng := rand.New(rand.NewSource(seed))
	at := 0.0
	for i := range in.offs {
		in.tenant[i] = int32(rng.Intn(tenantCount))
		in.pick[i] = rng.Uint32()
		in.offs[i] = at
		at += rng.ExpFloat64() * 1000 / tenantRate
	}
	return in, nil
}

type tenantsRun struct {
	disks []*sim.Disk
	mgr   *volume.Manager
	names []string // by request
	reqs  []device.Request
	offs  []float64
}

func (in *tenantsIn) setup(t *tracer) (composition, error) {
	disks, err := newDisks(tenantShards)
	if err != nil {
		return nil, err
	}
	r := &tenantsRun{disks: disks, offs: in.offs}
	devs := make([]device.Device, tenantShards)
	for i, d := range disks {
		devs[i] = shim(d, t)
	}
	mgr, err := volume.New(devs, volume.WithTier("fair"), volume.WithTierDepth(tenantDepth))
	if err != nil {
		return nil, err
	}
	r.mgr = mgr
	bounds := r.disks[0].TrackBoundaries()
	meanTrack := r.disks[0].Capacity() / int64(len(bounds)-1)
	shaped := volume.WithLimit(volume.TenantLimit{
		IOPS: tenantShaping * tenantRate / tenantCount, BurstRequests: tenantBurst, Defer: true,
	})
	names := make([]string, tenantCount)
	exts := make([][]device.Request, tenantCount) // each extent as a whole-extent read
	for i := range names {
		names[i] = fmt.Sprintf("t%04d", i)
		var opts []volume.VolumeOption
		if i%2 == 1 {
			opts = append(opts, shaped)
		}
		v, err := mgr.AddVolume(names[i], tenantExtents*meanTrack, opts...)
		if err != nil {
			return nil, err
		}
		off := int64(0)
		for _, e := range v.ExtentTable() {
			exts[i] = append(exts[i], device.Request{LBN: off, Sectors: int(e.Sectors)})
			off += e.Sectors
		}
	}
	r.names = make([]string, len(in.tenant))
	r.reqs = make([]device.Request, len(in.tenant))
	for i, ti := range in.tenant {
		e := exts[ti]
		r.names[i] = names[ti]
		r.reqs[i] = e[in.pick[i]%uint32(len(e))]
	}
	return r, nil
}

// pass submits the whole request list, then drains once. Draining
// mid-stream is not safe with Defer-shaped tenants: it releases held
// requests at future instants, and the next Submit then fails in the
// tier ("issue time ... before previous").
func (r *tenantsRun) pass(t *tracer) (passResult, error) {
	before := r.mgr.Aggregate()
	start := r.mgr.Now()
	failed := 0
	err := t.call("volume.Submit", func() error {
		for i, req := range r.reqs {
			if err := r.mgr.Submit(r.names[i], start+r.offs[i], req); err != nil {
				if !errors.Is(err, volume.ErrRejected) {
					return err
				}
				failed++
			}
		}
		return nil
	})
	if err != nil {
		return passResult{}, err
	}
	if err := t.call("volume.Drain", r.mgr.Drain); err != nil {
		return passResult{}, err
	}
	// The aggregate's response statistics are cumulative over passes.
	a := r.mgr.Aggregate()
	return passResult{
		attempted: len(r.reqs), failed: failed, completed: a.Requests - before.Requests,
		makespanMs: r.mgr.Now() - start,
		meanMs:     a.MeanMs, p50Ms: a.P50Ms, p99Ms: a.P99Ms, p9999Ms: a.P9999Ms,
		quantiles: true, offeredPerSec: tenantRate,
	}, nil
}

func (r *tenantsRun) layers() layerStats {
	var l layerStats
	for _, d := range r.disks {
		l.addDisk(d)
	}
	l.volume = r.mgr.Aggregate()
	return l
}

// ---- fleet ----

const (
	fleetSpindles   = 1024
	fleetPerSpindle = 1024
	fleetDepth      = 4
	fleetIO         = 64
	fleetRate       = 60.0 // req/s per spindle
	// fleetTracks confines each spindle's random reads to its outer
	// 8192 tracks (a sixth of the disk), whose slice of the shared
	// geometry tables fits the L2. Over the whole disk the tables live
	// in the shared L3, and on a shared host the cost then swings by a
	// quarter with other tenants' load; the traced run still reports the
	// whole-disk cost as fleet.wholedisk_ns_per_req.
	fleetTracks = 8192
)

// fleetIn carries only the seed, the size and the working set:
// driver.NewFleet generates the per-spindle streams itself, as part of
// set-up.
type fleetIn struct {
	seed                 int64
	spindles, perSpindle int
	tracks               int // working set per spindle; 0 is the whole disk
}

// fleetInputs splits scale evenly between the spindle count and the
// requests per spindle.
func fleetInputs(seed int64, scale int) (inputs, error) {
	f := math.Sqrt(float64(scale))
	return &fleetIn{
		seed:       seed,
		spindles:   max(1, int(fleetSpindles/f)),
		perSpindle: max(1, int(fleetPerSpindle/f)),
		tracks:     fleetTracks,
	}, nil
}

type fleetRun struct {
	disks  []*sim.Disk
	qs     []*sched.Queue
	f      *driver.Fleet
	per    int
	events uint64
}

func (in *fleetIn) setup(t *tracer) (composition, error) {
	disks, err := newDisks(in.spindles)
	if err != nil {
		return nil, err
	}
	r := &fleetRun{disks: disks, per: in.perSpindle}
	for _, d := range disks {
		q, err := sched.New(shim(d, t), sched.WithDepth(fleetDepth), sched.WithScheduler(sched.CLOOK()))
		if err != nil {
			return nil, err
		}
		r.qs = append(r.qs, q)
	}
	wl := driver.Workload{Requests: in.perSpindle, IOSectors: fleetIO, WorkingSetTracks: in.tracks, Seed: in.seed}
	f, err := driver.NewFleet(r.qs, wl, fleetRate)
	if err != nil {
		return nil, err
	}
	r.f = f
	return r, nil
}

func (r *fleetRun) pass(t *tracer) (passResult, error) {
	var m driver.FleetMetrics
	err := t.call("driver.Fleet.Run", func() (err error) {
		m, err = r.f.Run()
		return err
	})
	if err != nil {
		return passResult{}, err
	}
	r.events += m.Events
	return passResult{
		attempted: len(r.qs) * r.per, completed: m.Requests,
		makespanMs: m.MakespanMs, meanMs: m.MeanRespMs, offeredPerSec: fleetRate * float64(len(r.qs)),
	}, nil
}

func (r *fleetRun) layers() layerStats {
	var l layerStats
	for i, d := range r.disks {
		l.addDisk(d)
		l.addQueue(r.qs[i])
	}
	l.events = r.events
	return l
}

// ---- ftl-write ----

const (
	ftlRequests   = 500_000
	flashSectors  = 64 * 1024
	eraseSectors  = 512
	pageSectors   = 8
	reserveBlocks = 4
	prefillPasses = 3
	ftlDepth      = 8
	ftlRate       = 100.0
)

type ftlIn struct {
	seed int64
	recs []trace.Record
}

// ftlInputs draws block-sized overwrites from the half-block lattice,
// so half of them straddle two erase blocks and GC must copy.
func ftlInputs(seed int64, scale int) (inputs, error) {
	capacity := int64(flashSectors/eraseSectors-reserveBlocks) * eraseSectors
	grain := int64(eraseSectors / 2)
	positions := (capacity - eraseSectors) / grain
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, ftlRequests/scale)
	for i := range recs {
		recs[i] = trace.Record{LBN: rng.Int63n(positions) * grain, Sectors: eraseSectors, Write: true}
	}
	return &ftlIn{seed: seed, recs: recs}, nil
}

type ftlRun struct {
	f  *ftl.FTL
	st *stack.Stack
	rp *driver.Replay
	n  int
}

func (in *ftlIn) setup(t *tracer) (composition, error) {
	fl, err := zoned.NewFlash(flashSectors, zoned.WithEraseSectors(eraseSectors))
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(fl, ftl.WithPageSectors(pageSectors), ftl.WithReserveBlocks(reserveBlocks))
	if err != nil {
		return nil, err
	}
	st, err := stack.Config{Depth: ftlDepth, Scheduler: "zoned"}.Build(shim(f, t))
	if err != nil {
		return nil, err
	}
	// Prefill through the stack, so the replay starts on its clock.
	at := 0.0
	for p := 0; p < prefillPasses; p++ {
		for lbn := int64(0); lbn+eraseSectors <= f.Capacity(); lbn += eraseSectors {
			res, err := st.Serve(at, device.Request{LBN: lbn, Sectors: eraseSectors, Write: true})
			if err != nil {
				return nil, err
			}
			at = res.Done
		}
	}
	tr := trace.Trace{Capacity: f.Capacity(), SectorSize: f.SectorSize(), Records: in.recs}
	rp, err := driver.NewReplay(st, tr, driver.ReplayConfig{Window: window, RatePerSec: ftlRate, Seed: in.seed})
	if err != nil {
		return nil, err
	}
	return &ftlRun{f: f, st: st, rp: rp, n: len(in.recs)}, nil
}

func (r *ftlRun) pass(t *tracer) (passResult, error) {
	m, err := runReplay(r.rp, t)
	if err != nil {
		return passResult{}, err
	}
	return replayResult(m, r.n, ftlRate), nil
}

func (r *ftlRun) layers() layerStats {
	var l layerStats
	l.addQueue(r.st.Queue())
	l.cache = r.st.Stats()
	l.ftl = r.f.Stats()
	return l
}
