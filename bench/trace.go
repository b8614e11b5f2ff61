package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
)

// span is one timed interval on the tracer's clock. Spans nest three
// deep: a pass holds the benchmark's calls into the measured layers, and
// a call holds the leaf device's Serve calls it caused.
type span struct {
	start, end int64 // ns since the tracer's epoch
	id, parent int32 // parent -1: a pass
	layer      uint8 // index into tracer.layers
}

// spanCap bounds the spans kept for the CSV. Spans past it are still
// summed into the self times; only their CSV rows are dropped.
const spanCap = 1 << 18

// tracer records spans around the benchmark's own calls into each
// layer and, through leafShim, around every leaf-device call. It keeps
// running sums, so self times never need the stored spans.
type tracer struct {
	epoch  time.Time
	layers []string
	spans  []span
	nextID int32

	passID, callID int32 // the open pass and call, -1 when none
	passStart      int64

	// Totals since construction; callers difference them per pass.
	passNs, callNs, leafNs int64
	leafCalls              int64
	// orphans counts leaf calls made inside a pass but outside any call:
	// time no call span accounts for.
	orphans int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		layers: []string{"bench.pass", "device"},
		spans:  make([]span, 0, spanCap),
		passID: -1,
		callID: -1,
	}
}

const (
	layerPass uint8 = iota
	layerLeaf
)

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// layer returns the id of a named call layer, registering it once.
func (t *tracer) layer(name string) uint8 {
	for i, n := range t.layers {
		if n == name {
			return uint8(i)
		}
	}
	t.layers = append(t.layers, name)
	return uint8(len(t.layers) - 1)
}

func (t *tracer) record(s span) {
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) beginPass() {
	t.passID = t.nextID
	t.nextID++
	t.passStart = t.now()
}

func (t *tracer) endPass() {
	end := t.now()
	t.record(span{start: t.passStart, end: end, id: t.passID, parent: -1, layer: layerPass})
	t.passNs += end - t.passStart
	t.passID = -1
}

// call runs fn as one span of the named layer inside the open pass. A
// nil tracer runs fn untimed, so untraced runs pay nothing.
func (t *tracer) call(layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.nextID
	t.nextID++
	l := t.layer(layer)
	t.callID = id
	start := t.now()
	err := fn()
	end := t.now()
	t.callID = -1
	t.record(span{start: start, end: end, id: id, parent: t.passID, layer: l})
	t.callNs += end - start
	return err
}

// leaf accounts one leaf-device call. Calls outside any pass (set-up
// work such as an FTL prefill) are not measured.
func (t *tracer) leaf(start, end int64) {
	if t.passID < 0 {
		return
	}
	if t.callID < 0 {
		t.orphans++
	}
	t.leafNs += end - start
	t.leafCalls++
	t.record(span{start: start, end: end, id: t.nextID, parent: t.callID, layer: layerLeaf})
	t.nextID++
}

// writeCSV writes the kept spans, ordered by start time.
func (t *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, t.layers[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// leafShim is the transparent timing shim directly above the leaf
// device. Like faults.Injector it forwards the capabilities layers look
// for (Rotational, BoundaryProvider, Mapped, Named, Inner), so the
// composition above it behaves bit-identically with or without it.
type leafShim struct {
	inner device.Device
	t     *tracer
}

var (
	_ device.Device           = (*leafShim)(nil)
	_ device.Rotational       = (*leafShim)(nil)
	_ device.BoundaryProvider = (*leafShim)(nil)
	_ device.Mapped           = (*leafShim)(nil)
	_ device.Named            = (*leafShim)(nil)
)

// shim returns d behind a leaf shim, or d itself when t is nil.
func shim(d device.Device, t *tracer) device.Device {
	if t == nil {
		return d
	}
	return &leafShim{inner: d, t: t}
}

func (s *leafShim) Serve(at float64, req device.Request) (device.Result, error) {
	start := s.t.now()
	res, err := s.inner.Serve(at, req)
	s.t.leaf(start, s.t.now())
	return res, err
}

func (s *leafShim) Inner() device.Device { return s.inner }
func (s *leafShim) Now() float64         { return s.inner.Now() }
func (s *leafShim) Capacity() int64      { return s.inner.Capacity() }
func (s *leafShim) SectorSize() int      { return s.inner.SectorSize() }

func (s *leafShim) RotationPeriod() float64 {
	if r, ok := s.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

func (s *leafShim) TrackBoundaries() []int64 {
	if bp, ok := s.inner.(device.BoundaryProvider); ok {
		return bp.TrackBoundaries()
	}
	return nil
}

func (s *leafShim) Layout() *geom.Layout {
	if m, ok := s.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

func (s *leafShim) Name() string {
	if n, ok := s.inner.(device.Named); ok {
		return n.Name()
	}
	return "device"
}
