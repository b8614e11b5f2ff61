package main

import (
	"fmt"
	"time"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/trace"
	"traxtents/internal/workload/driver"
)

// rungs are the ladder's steps, in order. Each adds one layer to the
// one before it, over the same request list on a fresh disk, so the
// step between two rungs' non-device times is that layer's host cost.
var rungs = []string{"bare", "faults", "fcfs1", "clook8", "cache0", "cache16", "replay"}

// ladderRequests is the prefix of replay's capture the ladder drives.
const ladderRequests = 1 << 18

// rungResult holds one rung's per-pass host ns per request: in total,
// and without the leaf device's spans.
type rungResult struct {
	name             string
	total, nonDevice []float64
}

// ladder runs every rung for a warm pass and then timed passes until
// its share of budget is spent (at least minPasses).
func ladder(recs []trace.Record, t *tracer, budget time.Duration) ([]rungResult, error) {
	share := budget / time.Duration(len(rungs))
	var out []rungResult
	for _, name := range rungs {
		pass, err := buildRung(name, recs, t)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", name, err)
		}
		r := rungResult{name: name}
		var spent time.Duration
		for i := 0; i <= minPasses || spent < share; i++ {
			leaf0 := t.leafNs
			t.beginPass()
			start := time.Now()
			err := t.call("ladder."+name, pass)
			wall := time.Since(start)
			t.endPass()
			if err != nil {
				return nil, fmt.Errorf("ladder %s pass %d: %w", name, i, err)
			}
			if i == 0 {
				continue
			}
			spent += wall
			n := float64(len(recs))
			r.total = append(r.total, float64(wall.Nanoseconds())/n)
			r.nonDevice = append(r.nonDevice, float64(wall.Nanoseconds()-(t.leafNs-leaf0))/n)
		}
		out = append(out, r)
	}
	return out, nil
}

// buildRung composes one rung over a fresh disk behind the leaf shim
// and returns its pass: every request once, in arrival order, each pass
// starting where the previous one's clock stopped.
func buildRung(name string, recs []trace.Record, t *tracer) (func() error, error) {
	reqs := make([]device.Request, len(recs))
	offs := make([]float64, len(recs))
	for i, rec := range recs {
		reqs[i] = device.Request{LBN: rec.LBN, Sectors: rec.Sectors, Write: rec.Write}
		offs[i] = rec.Issue
	}
	disks, err := newDisks(1)
	if err != nil {
		return nil, err
	}
	leaf := shim(disks[0], t)
	if name == "bare" {
		return serveEach(leaf, reqs, offs), nil
	}
	inj, err := faults.New(leaf)
	if err != nil {
		return nil, err
	}
	switch name {
	case "faults":
		return serveEach(inj, reqs, offs), nil
	case "fcfs1", "clook8":
		opts := []sched.Option{sched.WithDepth(1)}
		if name == "clook8" {
			opts = []sched.Option{sched.WithDepth(replayDepth), sched.WithScheduler(sched.CLOOK())}
		}
		q, err := sched.New(inj, opts...)
		if err != nil {
			return nil, err
		}
		return queueWindows(q, reqs, offs), nil
	case "cache0", "cache16", "replay":
		cfg := stack.Config{Depth: replayDepth, Scheduler: "clook"}
		if name != "cache0" {
			cfg.CacheMB = replayCacheMB
		}
		st, err := cfg.Build(inj)
		if err != nil {
			return nil, err
		}
		if name != "replay" {
			return stackWindows(st, reqs, offs), nil
		}
		rp, err := driver.NewReplay(st, trace.Trace{Records: recs}, driver.ReplayConfig{Window: window})
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := rp.Run()
			return err
		}, nil
	}
	return nil, fmt.Errorf("unknown rung %q", name)
}

// serveEach serves the requests one at a time at their arrival times.
func serveEach(d device.Device, reqs []device.Request, offs []float64) func() error {
	return func() error {
		start := d.Now()
		for i, req := range reqs {
			if _, err := d.Serve(start+offs[i], req); err != nil {
				return err
			}
		}
		return nil
	}
}

// queueWindows drives a queue by Submit, draining every window
// requests.
func queueWindows(q *sched.Queue, reqs []device.Request, offs []float64) func() error {
	done := 0
	count := func(*sched.Completion) { done++ }
	drain := func() error {
		if err := q.Flush(); err != nil {
			return err
		}
		q.ConsumeCompleted(count)
		return nil
	}
	return func() error {
		start := q.Now()
		done = 0
		for i, req := range reqs {
			if err := q.Submit(start+offs[i], req); err != nil {
				return err
			}
			if (i+1)%window == 0 {
				if err := drain(); err != nil {
					return err
				}
			}
		}
		if err := drain(); err != nil {
			return err
		}
		return checkDone(done, len(reqs))
	}
}

// stackWindows drives a stack by Submit and DrainEach, draining every
// window requests.
func stackWindows(st *stack.Stack, reqs []device.Request, offs []float64) func() error {
	done := 0
	count := func(*device.Result) { done++ }
	return func() error {
		start := st.Now()
		done = 0
		for i, req := range reqs {
			if err := st.Submit(start+offs[i], req); err != nil {
				return err
			}
			if (i+1)%window == 0 {
				if err := st.DrainEach(count); err != nil {
					return err
				}
			}
		}
		if err := st.DrainEach(count); err != nil {
			return err
		}
		return checkDone(done, len(reqs))
	}
}

func checkDone(done, n int) error {
	if done != n {
		return fmt.Errorf("%d of %d requests completed", done, n)
	}
	return nil
}
