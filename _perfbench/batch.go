package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/routing"
)

// workers is the fan-out of every workload: one worker machine, or one
// in-flight service request, per CPU of the 2-CPU reference host.
const workers = 2

// runResult is one seeded run of a batch plan.
type runResult struct {
	Index  int
	Worker int
	Start  time.Duration // offset from the start of the pass
	Dur    time.Duration
	Sample experiments.Sample
	Digest string
	Err    error
}

// newMachines builds and prewarms the worker machines: the set-up a
// researcher pays once per campaign.
func newMachines(w *workload) ([]*core.Machine, error) {
	ms := make([]*core.Machine, workers)
	for i := range ms {
		m, err := core.NewMachine(w.Profile.Theta)
		if err != nil {
			return nil, fmt.Errorf("build machine: %w", err)
		}
		m.Prewarm()
		ms[i] = m
	}
	return ms, nil
}

// sampleOne runs one op through the public campaign entry on one
// machine: a one-run, one-mode SamplesOn call, so that each seeded run
// is timed on its own.
func sampleOne(w *workload, m *core.Machine, o op) (experiments.Sample, error) {
	app, err := apps.ByName(o.App)
	if err != nil {
		return experiments.Sample{}, err
	}
	mode, err := routing.ParseMode(o.Modes[0])
	if err != nil {
		return experiments.Sample{}, err
	}
	p := w.Profile
	p.Runs = 1
	var bg *core.BackgroundSpec
	if o.BG {
		bg = core.DefaultBackground()
	}
	ss, err := p.SamplesOn(context.Background(), []*core.Machine{m}, app, o.Nodes,
		[]routing.Mode{mode}, bg, o.Seed)
	if err != nil {
		return experiments.Sample{}, err
	}
	if len(ss) != 1 {
		return experiments.Sample{}, fmt.Errorf("SamplesOn returned %d samples, want 1", len(ss))
	}
	return ss[0], nil
}

// sampleDigest hashes every simulated output of one run. Simulated
// outputs are deterministic per seed, so the digest is the run's output
// check.
func sampleDigest(s experiments.Sample) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%d|%d|%.17g|%d|%d|%d|%d|%.17g", s.App, s.Mode, s.Seed, s.Groups,
		s.RuntimeSec, s.Events, s.Packets, s.MinPkts, s.NonMinPkts, s.MeanTransitSec)
	if s.Reduced != nil {
		fmt.Fprintf(h, "|%+v", *s.Reduced) // fmt prints the CallTime map in key order
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkSample reports a run whose outputs break the model's own
// invariants, for seeds with no recorded digest.
func checkSample(s experiments.Sample) error {
	switch {
	case s.Reduced == nil:
		return fmt.Errorf("seed %d: no reduced digest", s.Seed)
	case s.RuntimeSec <= 0:
		return fmt.Errorf("seed %d: runtime %g", s.Seed, s.RuntimeSec)
	case s.Packets == 0 || s.Events < s.Packets:
		return fmt.Errorf("seed %d: %d events for %d packets", s.Seed, s.Events, s.Packets)
	case s.MinPkts+s.NonMinPkts == 0:
		return fmt.Errorf("seed %d: job routed no packets", s.Seed)
	}
	return nil
}

// runPass executes the plan on the machines, one worker goroutine per
// machine pulling ops in plan order. It returns per-op results in plan
// order and the pass's wall time. span, when non-nil, is called around
// each run (the traced pass).
func runPass(w *workload, ms []*core.Machine, ops []op, span func(worker int, o op, start, end time.Time, r *runResult)) ([]runResult, time.Duration) {
	res := make([]runResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for wk := range ms {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				start := time.Now()
				s, err := sampleOne(w, ms[wk], ops[i])
				end := time.Now()
				r := runResult{Index: i, Worker: wk, Start: start.Sub(t0), Dur: end.Sub(start), Sample: s, Err: err}
				if err == nil {
					r.Digest = sampleDigest(s)
					r.Err = checkSample(s)
				}
				if span != nil {
					span(wk, ops[i], start, end, &r)
				}
				res[i] = r
			}
		}(wk)
	}
	wg.Wait()
	return res, time.Since(t0)
}

// planDigest folds per-op digests in plan order into one.
func planDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
